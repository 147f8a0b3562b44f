#include "study/study.hpp"

#include <stdexcept>

namespace fpr::study {

const MachineResult& KernelResult::on(std::string_view short_name) const {
  for (const auto& m : machines) {
    if (m.cpu.short_name == short_name) return m;
  }
  throw std::invalid_argument("no machine result for " +
                              std::string(short_name));
}

const KernelResult* StudyResults::find(std::string_view abbrev) const {
  for (const auto& k : kernels) {
    if (k.info.abbrev == abbrev) return &k;
  }
  return nullptr;
}

}  // namespace fpr::study
