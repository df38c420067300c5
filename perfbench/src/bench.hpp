// Shared scaffolding of the repository benchmark: options, the metric report,
// the bench-side span tracer with its self-time ledger, output digests, and
// small statistics helpers. Every workload (table1, fig5_deep, chip_dndp,
// auth_flood) drives the library's public API from its own file and reports
// through these types; nothing here reaches into library internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bit_vector.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;  ///< committed digests (expected/digests.txt)
  std::string trace_out;      ///< where the traced run writes its spans ("" = nowhere)
  std::string commit = "unknown";
  bool bless = false;  ///< print fresh digests instead of checking them
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using LayerValues = std::map<std::string, double>;

/// Everything one invocation prints: the metrics plus the output-check tally.
/// Traced runs fill `layer`, which main() orders by layer_metric_specs().
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  LayerValues layer;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- output digests ------------------------------------------------------------

/// FNV-1a over a canonical little-endian byte stream of an output.
class Digest {
 public:
  void add_u64(std::uint64_t v) noexcept;
  void add_double(double v) noexcept;  ///< exact bit pattern
  void add_bits(const jrsnd::BitVector& bits) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Committed digests, keyed by (workload, seed).
class ExpectedDigests {
 public:
  /// Loads `path`; a missing or unreadable file yields an empty table, so
  /// every iteration then fails its check.
  explicit ExpectedDigests(const std::string& path);
  [[nodiscard]] bool matches(const std::string& workload, std::uint64_t seed,
                             const std::string& digest) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::string> table_;
};

// --- bench-side spans ----------------------------------------------------------

/// Span names: one per boundary the benchmark times around a public call.
enum class SpanName : std::uint8_t {
  Iteration,   ///< one timed unit (Monte-Carlo run, chip-world pass, flood drain loop)
  Authority,   ///< predist::CodePoolAuthority construction
  World,       ///< field, placement and topology
  Adversary,   ///< compromise model and jammer
  Provision,   ///< IBC authority and NodeState provisioning
  Dndp,        ///< the D-NDP loop over every physical pair
  Attempt,     ///< one DndpEngine::run
  PhyBegin,    ///< PhyModel::begin_subsession
  PhyTransmit, ///< PhyModel::transmit
  Mndp,        ///< both M-NDP reachability loops
  Reach,       ///< one LogicalGraph::reachable_within
  Rates,       ///< rates and latency sampling
  Push,        ///< VerifyQueue::push of one batch
  Drain,       ///< VerifyQueue::drain of one batch
  kCount,
};

[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct SpanRecord {
  SpanName name;
  std::uint32_t parent;     ///< index into the span list, kNoParent for roots
  std::uint32_t iteration;  ///< shared by every span of one iteration
  std::int64_t begin_ns;
  std::int64_t end_ns;
};

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// In-memory span recorder for one thread. Spans nest by call structure;
/// records stay in memory until write() at the end of the run.
class Tracer {
 public:
  void set_iteration(std::uint32_t id) noexcept { iteration_ = id; }
  [[nodiscard]] std::uint32_t begin(SpanName name);
  void end(std::uint32_t index);
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  /// Writes one tab-separated line per span; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t iteration_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->begin(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_ = 0;
};

/// Per-name totals of a trace. Self time is a span's duration minus the time
/// its direct children cover.
struct LayerTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

struct Ledger {
  std::vector<LayerTotals> layers = std::vector<LayerTotals>(static_cast<std::size_t>(SpanName::kCount));
  [[nodiscard]] const LayerTotals& operator[](SpanName n) const {
    return layers[static_cast<std::size_t>(n)];
  }
  /// Share of root (Iteration) time that no child span covers.
  [[nodiscard]] double unattributed_share() const;
  /// Share of root time spent in `n`, by total or self time.
  [[nodiscard]] double share(SpanName n) const;
  [[nodiscard]] double self_share(SpanName n) const;
};

[[nodiscard]] Ledger summarize(const Tracer& tracer);

// --- statistics and process facts -----------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double peak_rss_mb();
/// Current value of a library counter in the process registry.
[[nodiscard]] std::uint64_t counter(const char* name);
[[nodiscard]] inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- workloads -------------------------------------------------------------------

/// One timed iteration as main() sees it.
struct Iteration {
  double seconds = 0.0;       ///< timed work only; output checks run after
  std::uint64_t attempts = 0; ///< handshake attempts completed
  std::uint64_t frames = 0;   ///< AUTH frames through verification
  bool ok = false;            ///< output check passed
  std::uint64_t seed = 0;
  std::string digest;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The fixed seed list every invocation cycles through.
  [[nodiscard]] virtual const std::vector<std::uint64_t>& seeds() const = 0;
  /// Runs the timed unit for `seed`, then checks its output.
  [[nodiscard]] virtual Iteration iterate(std::uint64_t seed) = 0;
  /// The traced run: appends every per-layer metric this workload measures.
  virtual void traced(const Options& options, Report& report) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_table1(const ExpectedDigests& expected);
[[nodiscard]] std::unique_ptr<Workload> make_fig5_deep(const ExpectedDigests& expected);
[[nodiscard]] std::unique_ptr<Workload> make_chip_dndp(const ExpectedDigests& expected);
[[nodiscard]] std::unique_ptr<Workload> make_auth_flood(const ExpectedDigests& expected);

/// The per-layer metric names every traced run prints, in order, with units.
/// Layers a workload does not execute report 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetricSpec>& layer_metric_specs();

}  // namespace perfbench
