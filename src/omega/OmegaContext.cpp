//===- omega/OmegaContext.cpp ---------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "omega/OmegaContext.h"

using namespace omega;

void OmegaContext::forEachIndependent(std::size_t N, const TaskFn &Fn) {
  if (SubTasks && N > 1) {
    SubTasks->runSubTasks(*this, N, Fn);
    return;
  }
  for (std::size_t I = 0; I != N; ++I)
    Fn(I, *this);
}
