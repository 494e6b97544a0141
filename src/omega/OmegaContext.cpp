//===- omega/OmegaContext.cpp ---------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "omega/OmegaContext.h"

using namespace omega;

namespace {
thread_local OmegaContext *CurrentContext = nullptr;
} // namespace

OmegaContext &OmegaContext::defaultContext() {
  static OmegaContext Ctx;
  return Ctx;
}

OmegaContext &OmegaContext::current() {
  return CurrentContext ? *CurrentContext : defaultContext();
}

void OmegaContext::forEachIndependent(std::size_t N, const TaskFn &Fn) {
  if (SubTasks && N > 1) {
    SubTasks->runSubTasks(*this, N, Fn);
    return;
  }
  OmegaContextScope Scope(*this);
  for (std::size_t I = 0; I != N; ++I)
    Fn(I, *this);
}

OmegaContextScope::OmegaContextScope(OmegaContext &Ctx)
    : Prev(CurrentContext) {
  CurrentContext = &Ctx;
}

OmegaContextScope::~OmegaContextScope() { CurrentContext = Prev; }
