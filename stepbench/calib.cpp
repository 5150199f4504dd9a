#include "calib.hpp"

#include <chrono>
#include <cmath>
#include <vector>

namespace stepbench {

namespace {
volatile double g_sink = 0.0;  // keeps the kernel's result observable
}  // namespace

double reference_kernel_s() {
  // Transcendental-heavy scalar work, like the chemistry and transport
  // kernels that dominate a step: slowed by the same neighbours.
  thread_local std::vector<double> v(4096, 0.5);
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (int rep = 0; rep < 200; ++rep)
    for (double& x : v) {
      x = std::log(std::exp(x) + 1.0) - 0.3;
      acc += x;
    }
  g_sink = acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace stepbench
