#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "obs/metrics_registry.hpp"

namespace perfbench {

// --- digests ---------------------------------------------------------------------

void Digest::add_u64(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add_double(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

void Digest::add_bits(const jrsnd::BitVector& bits) noexcept {
  add_u64(bits.size());
  for (const std::uint64_t w : bits.words()) add_u64(w);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

ExpectedDigests::ExpectedDigests(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string digest;
    if (fields >> workload >> seed >> digest) table_[{workload, seed}] = digest;
  }
}

bool ExpectedDigests::matches(const std::string& workload, std::uint64_t seed,
                              const std::string& digest) const {
  const auto it = table_.find({workload, seed});
  return it != table_.end() && it->second == digest;
}

// --- spans -----------------------------------------------------------------------

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::Iteration: return "iteration";
    case SpanName::Authority: return "predist.authority";
    case SpanName::World: return "sim.world";
    case SpanName::Adversary: return "adversary.setup";
    case SpanName::Provision: return "crypto.provision";
    case SpanName::Dndp: return "dndp.loop";
    case SpanName::Attempt: return "dndp.attempt";
    case SpanName::PhyBegin: return "phy.begin_subsession";
    case SpanName::PhyTransmit: return "phy.transmit";
    case SpanName::Mndp: return "mndp.loop";
    case SpanName::Reach: return "sim.reach";
    case SpanName::Rates: return "sim.rates";
    case SpanName::Push: return "crypto.push";
    case SpanName::Drain: return "crypto.drain";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::uint32_t Tracer::begin(SpanName name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back({name, open_.empty() ? kNoParent : open_.back(), iteration_, now_ns(), 0});
  open_.push_back(index);
  return index;
}

void Tracer::end(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "iteration\tspan\tparent\tname\tbegin_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "%u\t%zu\t%lld\t%s\t%lld\t%lld\n", s.iteration, i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 span_name(s.name), static_cast<long long>(s.begin_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Ledger summarize(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent != kNoParent) child_s[s.parent] += static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
  }
  Ledger ledger;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].begin_ns) * 1e-9;
    LayerTotals& t = ledger.layers[static_cast<std::size_t>(spans[i].name)];
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
    t.durations_s.push_back(dur);
  }
  return ledger;
}

double Ledger::unattributed_share() const { return self_share(SpanName::Iteration); }

double Ledger::share(SpanName n) const {
  return ratio((*this)[n].total_s, (*this)[SpanName::Iteration].total_s);
}

double Ledger::self_share(SpanName n) const {
  return ratio((*this)[n].self_s, (*this)[SpanName::Iteration].total_s);
}

// --- statistics ------------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t counter(const char* name) { return jrsnd::obs::registry().counter(name).value(); }

// --- the per-layer metric list -----------------------------------------------------

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"crypto.pair_key_us", "us"},
      {"crypto.auth_make_us", "us"},
      {"crypto.auth_verify_us", "us"},
      {"crypto.session_code_us", "us"},
      {"crypto.verify.frames", "count"},
      {"crypto.verify.peer_cache.hit_ratio", "ratio"},
      {"crypto.hmac.midstate.builds_per_verify", "ratio"},
      {"crypto.provision_ms", "ms"},
      {"predist.intersect_us", "us"},
      {"predist.authority_ms", "ms"},
      {"sim.world_ms", "ms"},
      {"sim.reach_calls", "count"},
      {"sim.reach_share", "ratio"},
      {"adversary.setup_ms", "ms"},
      {"dndp.attempts", "count"},
      {"dndp.attempt_us_p50", "us"},
      {"dndp.attempt_us_p99", "us"},
      {"dndp.self_share", "ratio"},
      {"dndp.subsessions_per_attempt", "ratio"},
      {"dndp.subsession_completed_ratio", "ratio"},
      {"phy.calls", "count"},
      {"phy.share", "ratio"},
      {"phy.delivered_ratio", "ratio"},
      {"phy.chip_tx_us_p50", "us"},
      {"phy.chip_tx_us_p99", "us"},
      {"phy.chip_jam_ratio", "ratio"},
      {"dsss.codebook_prepare_ms", "ms"},
      {"dsss.codebook_mb", "MB"},
      {"dsss.scan_us", "us"},
      {"ecc.decode_clean_us", "us"},
      {"ecc.decode_erased_us", "us"},
      {"crypto.reject.length_share", "ratio"},
      {"crypto.reject.format_share", "ratio"},
      {"crypto.reject.code_share", "ratio"},
      {"crypto.reject.mac_share", "ratio"},
      {"crypto.verify.accept_share", "ratio"},
      {"crypto.verify.frames_per_batch", "ratio"},
      {"crypto.push_share", "ratio"},
      {"crypto.drain_share", "ratio"},
      {"drain_us_p50", "us"},
      {"drain_us_p99", "us"},
      {"obs.metrics_tax_pct", "pct"},
      {"trace.overhead_pct", "pct"},
      {"ledger.unattributed_share", "ratio"},
      {"fail_ratio", "ratio"},
  };
  return specs;
}

}  // namespace perfbench
