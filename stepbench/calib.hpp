#pragma once
// Reference kernel that measures how fast the calling thread's core is
// running right now. It lives in its own library, built with fixed flags
// and no repository code, so that no change to the solver or to the
// repository's build can change the work it does.

namespace stepbench {

/// Wall seconds the calling thread takes for a fixed amount of libm
/// exp/log work on an L1-resident array: ~8 ms on an uncontended core.
double reference_kernel_s();

}  // namespace stepbench
