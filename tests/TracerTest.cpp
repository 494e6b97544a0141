//===- tests/TracerTest.cpp - Observability layer contracts ---------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The tracer's three contracts: a disabled tracer is invisible (no events,
// no allocations on the hot path); span nesting mirrors the call structure
// of the decision procedures; and the merged event stream is independent
// of the worker count.
//
//===----------------------------------------------------------------------===//

#include "calc/Calc.h"
#include "engine/DependenceEngine.h"
#include "kernels/Kernels.h"
#include "obs/Trace.h"
#include "omega/Gist.h"
#include "omega/Satisfiability.h"
#include "support/SmallCoeffVector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace omega;

namespace {

/// A small query pair exercising gist -> sat -> FM nesting: P has the
/// redundant bound i <= 20 relative to Given's i <= 10.
struct GistFixture {
  Problem P, Given;
  GistFixture() {
    VarId I = P.addVar("i");
    P.addGEQ({{I, 1}}, 0);    // i >= 0
    P.addGEQ({{I, -1}}, 20);  // i <= 20
    VarId J = Given.addVar("i");
    Given.addGEQ({{J, 1}}, 0);  // i >= 0
    Given.addGEQ({{J, -1}}, 10); // i <= 10
  }
};

} // namespace

// With no tracer attached, the instrumented entry points record nothing
// and allocate nothing: the same thread-local-counter trick that pins
// SmallCoeffVector's zero-allocation property pins the tracer's
// zero-overhead claim.
TEST(Tracer, DisabledTracerRecordsNothing) {
  OmegaContext Ctx;
  ASSERT_EQ(Ctx.Trace, nullptr);

  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 11}, {Y, 13}}, -27);
  P.addGEQ({{X, -11}, {Y, -13}}, 45);
  P.addGEQ({{X, 7}, {Y, -9}}, 10);
  P.addGEQ({{X, -7}, {Y, 9}}, 4);

  // Warm anything lazily initialized, then measure.
  (void)isSatisfiable(P, Ctx);

  uint64_t EventsBefore = obs::TraceBuffer::eventsRecordedThisThread();
  uint64_t AllocsBefore = SmallCoeffVector::heapAllocationsThisThread();
  EXPECT_FALSE(isSatisfiable(P, Ctx));
  EXPECT_EQ(obs::TraceBuffer::eventsRecordedThisThread(), EventsBefore);
  EXPECT_EQ(SmallCoeffVector::heapAllocationsThisThread(), AllocsBefore);
}

// An attached tracer records spans whose nesting mirrors the call
// structure: the gist entry is the single root, everything else nests
// strictly inside it, and parent/child time accounting is consistent.
TEST(Tracer, SpanNestingMatchesCallStructure) {
  obs::Tracer T;
  OmegaContext Ctx;
  Ctx.Trace = &T.registerBuffer("test", &Ctx.Stats);

  GistFixture F;
  Problem G = gist(F.P, F.Given, Ctx);
  Ctx.Trace = nullptr;
  EXPECT_EQ(G.constraints().size(), 0u) << "Given implies P";

  const std::vector<obs::TraceEvent> Events = T.mergedEvents();
  ASSERT_FALSE(Events.empty());
  EXPECT_EQ(Events.front().Kind, obs::SpanKind::Gist);
  EXPECT_EQ(Events.front().Depth, 0u);

  // All other events happened inside the gist call.
  unsigned SatSpans = 0;
  for (std::size_t I = 1; I != Events.size(); ++I) {
    EXPECT_GE(Events[I].Depth, 1u) << "event " << I << " escaped the root";
    if (Events[I].Kind == obs::SpanKind::Sat)
      ++SatSpans;
  }
  EXPECT_GT(SatSpans, 0u) << "gist never consulted the sat procedure";
  EXPECT_EQ(SatSpans, Ctx.Stats.SatisfiabilityCalls)
      << "every isSatisfiable call records exactly one Sat span";

  // Reconstruct the nesting from recorded depths (events are appended in
  // begin order) and check each child lies within its parent's interval
  // and that ChildNs sums the direct children exactly.
  std::vector<std::size_t> Stack;
  std::vector<uint64_t> ChildSum(Events.size(), 0);
  for (std::size_t I = 0; I != Events.size(); ++I) {
    const obs::TraceEvent &E = Events[I];
    while (!Stack.empty() && Events[Stack.back()].Depth >= E.Depth)
      Stack.pop_back();
    ASSERT_EQ(Stack.size(), E.Depth) << "depth gap at event " << I;
    if (!Stack.empty()) {
      const obs::TraceEvent &Parent = Events[Stack.back()];
      EXPECT_GE(E.StartNs, Parent.StartNs);
      EXPECT_LE(E.StartNs + E.DurNs, Parent.StartNs + Parent.DurNs);
      if (E.Kind != obs::SpanKind::Decision)
        ChildSum[Stack.back()] += E.DurNs;
    }
    if (E.Kind != obs::SpanKind::Decision)
      Stack.push_back(I);
  }
  for (std::size_t I = 0; I != Events.size(); ++I)
    if (Events[I].Kind != obs::SpanKind::Decision)
      EXPECT_EQ(Events[I].ChildNs, ChildSum[I]) << "event " << I;

  // The Figure-6 classification partitions the satisfiability calls.
  obs::ProfileData PD = T.profile();
  EXPECT_EQ(PD.Classes.total(), Ctx.Stats.SatisfiabilityCalls);
  EXPECT_EQ(PD.Stats.SatisfiabilityCalls, Ctx.Stats.SatisfiabilityCalls)
      << "top-level span deltas sum to the context counters";
}

namespace {

/// The jobs-independent part of an event (no times, no counter deltas).
std::string structuralSignature(const std::vector<obs::TraceEvent> &Events) {
  std::string Out;
  for (const obs::TraceEvent &E : Events) {
    Out += obs::spanKindName(E.Kind);
    Out += ' ';
    Out += std::to_string(E.TaskKey) + ":" + std::to_string(E.Seq);
    Out += " d" + std::to_string(E.Depth);
    Out += " v" + std::to_string(E.Vars) + "r" + std::to_string(E.Rows);
    Out += " " + E.Label + "\n";
  }
  return Out;
}

} // namespace

// The merged trace of a 4-worker run is event-for-event identical to the
// serial run's: task keys follow the serial enumeration order, not the
// racing workers.
TEST(Tracer, MergedOrderIndependentOfJobs) {
  unsigned Compared = 0;
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;

    auto runWith = [&](unsigned Jobs, obs::Tracer &T) {
      engine::AnalysisRequest Req;
      Req.Jobs = Jobs;
      Req.Terminate = true; // cover the phase-4 task keys too
      Req.Trace = &T;
      engine::DependenceEngine Engine(Req);
      (void)Engine.analyze(AP);
    };
    obs::Tracer Serial, Parallel;
    runWith(1, Serial);
    runWith(4, Parallel);

    EXPECT_EQ(structuralSignature(Serial.mergedEvents()),
              structuralSignature(Parallel.mergedEvents()))
        << "kernel " << K.Name;
    ++Compared;
  }
  EXPECT_GT(Compared, 0u);
}

// The sinks stay well-formed on a real engine run, and the calc directive
// round-trips: `trace on` ... `trace off` prints a profile.
TEST(Tracer, SinksAndCalcDirective) {
  obs::Tracer T;
  engine::AnalysisRequest Req;
  Req.Trace = &T;
  engine::DependenceEngine Engine(Req);
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  (void)Engine.analyze(AP);

  std::string Chrome = T.chromeTraceJson();
  EXPECT_EQ(Chrome.front(), '{');
  EXPECT_NE(Chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(T.explainLog().find("killed by write"), std::string::npos);
  EXPECT_NE(T.profileReport(/*Json=*/true).find("\"classes\""),
            std::string::npos);

  calc::Calculator C;
  std::string Out = C.run("P := {[i] : 0 <= i && i <= 10};\n"
                          "trace on;\n"
                          "sat P;\n"
                          "trace off;\n");
  EXPECT_FALSE(C.hadError()) << Out;
  EXPECT_NE(Out.find("tracing on"), std::string::npos);
  EXPECT_NE(Out.find("sat"), std::string::npos) << Out;
  EXPECT_FALSE(C.tracing());
  // A second `trace off` is a polite no-op, not an error.
  Out = C.run("trace off;\n");
  EXPECT_FALSE(C.hadError());
  EXPECT_NE(Out.find("already off"), std::string::npos);
}
