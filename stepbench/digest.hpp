#pragma once
// Committed answer for the digest check: per conserved variable, the sum
// over the grid of |U(end) - U(start)| after the first 10 steps of each
// workload at seed 1. The bitwise block check compares the program only
// with itself on another decomposition and path; these numbers pin what
// it computes. Regenerate (after a deliberate change of the physics)
// with `stepbench --workload <name> --print-digest 1`.

#include <string>
#include <vector>

namespace stepbench {

inline const std::vector<double>* expected_digest(const std::string& name) {
  struct Entry {
    const char* name;
    std::vector<double> change;
  };
  static const std::vector<Entry> table = {
    {"lifted_1rank",
     {5.2388077671793587, 2671.7952013536778, 7730.560608903148, 0, 4759240.4513312448, 0.51526207918895006, 0.73550419501380582, 8.2106756186732769e-11, 7.6670431305145353e-11, 2.271312066460299e-11, 8.4573589817021448e-11, 3.0773565746214358e-09, 1.2103856518858555e-13}},
    {"bunsen_2rank",
     {7.1159973583217493, 1127.3939149420191, 1075.8401310508759, 0, 2669580.9125868939, 0.2961615420328223, 2.0391227825598137, 0.83933073451650542, 1.5436708763002605, 0.2802385194070956}},
    {"counterflow_2rank",
     {4.0178732982593361, 713.9361908134141, 446.86788533470485, 0, 1353735.3653522935, 0.095196895924944791, 0.26077633527610616, 1.1645376605128691e-08, 1.1805235987053528e-08, 1.7130643816547427e-09, 2.9214341303376786e-09, 1.1991885703161915e-07, 9.9570192835280684e-12}},
  };
  for (const auto& e : table)
    if (name == e.name) return &e.change;
  return nullptr;
}

}  // namespace stepbench
