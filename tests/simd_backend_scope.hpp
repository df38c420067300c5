// Backend helpers for the dsss kernel tests: the SIMD backends this process
// can run, and an RAII pin that restores the previous dispatch choice so a
// forced backend never leaks across tests.
#pragma once

#include <vector>

#include "dsss/sync_kernel.hpp"

namespace jrsnd::dsss {

inline std::vector<SimdBackend> supported_backends() {
  std::vector<SimdBackend> backends;
  for (const SimdBackend b :
       {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512, SimdBackend::kNeon}) {
    if (simd_backend_supported(b)) backends.push_back(b);
  }
  return backends;
}

/// Pins the dispatch backend for one test body and restores the previous
/// choice on scope exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(SimdBackend backend) : previous_(simd_backend()) {
    set_simd_backend(backend);
  }
  ~ScopedBackend() { set_simd_backend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  SimdBackend previous_;
};

}  // namespace jrsnd::dsss
