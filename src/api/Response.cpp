//===- api/Response.cpp ---------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "api/Response.h"

#include "api/Json.h"
#include "transform/Pipeline.h"

#include <cstdio>

using namespace omega;
using namespace omega::api;

namespace {

std::string jsonAccess(const ir::Access &A) {
  return "{\"stmt\": " + std::to_string(A.StmtLabel) + ", \"text\": \"" +
         json::escape(A.Text) + "\"}";
}

void appendDeps(std::string &Out, const std::vector<deps::Dependence> &Deps) {
  Out += "[";
  bool FirstDep = true;
  for (const deps::Dependence &D : Deps) {
    if (!FirstDep)
      Out += ", ";
    FirstDep = false;
    Out += "{\"from\": " + jsonAccess(*D.Src) +
           ", \"to\": " + jsonAccess(*D.Dst) +
           ", \"covers\": " + (D.Covers ? "true" : "false") + ", \"splits\": [";
    bool FirstSplit = true;
    for (const deps::DepSplit &S : D.Splits) {
      if (!FirstSplit)
        Out += ", ";
      FirstSplit = false;
      Out += "{\"level\": " + std::to_string(S.Level) + ", \"dir\": \"" +
             json::escape(S.dirToString()) +
             "\", \"dead\": " + (S.Dead ? "true" : "false");
      if (S.DeadReason)
        Out += std::string(", \"reason\": \"") + S.DeadReason + "\"";
      if (S.Refined)
        Out += ", \"refined\": true";
      Out += "}";
    }
    Out += "]}";
  }
  Out += "]";
}

const char *enablingReasonName(char R) {
  switch (R) {
  case 'p':
    return "privatization";
  case 'c':
    return "covered";
  default:
    return "killed";
  }
}

/// The "pipeline" array (schema 4 on): one deterministic entry per loop.
void appendPipeline(std::string &Out, const ir::AnalyzedProgram &AP,
                    const analysis::AnalysisResult &R) {
  Out += "[";
  bool FirstLoop = true;
  for (const transform::PipelineFacts &F : transform::analyzePipelines(AP, R)) {
    if (!FirstLoop)
      Out += ", ";
    FirstLoop = false;
    Out += "{\"loop\": \"" + json::escape(F.Loop->SourceVar) +
           "\", \"depth\": " + std::to_string(F.Loop->Depth + 1) +
           ", \"statements\": " + std::to_string(F.Statements) +
           ", \"sccs\": " + std::to_string(F.Sccs) +
           ", \"planned\": " + (F.Plan.valid() ? "true" : "false");
    if (F.Plan.valid()) {
      Out += ", \"stages\": [";
      bool FirstStage = true;
      for (const transform::PipelineStage &S : F.Plan.Stages) {
        if (!FirstStage)
          Out += ", ";
        FirstStage = false;
        Out += "{\"stmts\": [";
        for (unsigned I = 0; I != S.StmtLabels.size(); ++I)
          Out += (I ? ", " : "") + std::to_string(S.StmtLabels[I]);
        Out += "], \"parallel\": ";
        Out += S.Parallel ? "true" : "false";
        Out += ", \"weight\": " + std::to_string(S.Weight) + "}";
      }
      Out += "], \"privatized\": [";
      for (unsigned I = 0; I != F.Plan.PrivatizedArrays.size(); ++I)
        Out += (I ? ", \"" : "\"") +
               json::escape(F.Plan.PrivatizedArrays[I]) + "\"";
      Out += "], \"enabledBy\": [";
      bool FirstKill = true;
      for (const transform::EnablingKill &K : F.Plan.EnablingKills) {
        if (!FirstKill)
          Out += ", ";
        FirstKill = false;
        Out += "{\"from\": " + std::to_string(K.SrcLabel) +
               ", \"to\": " + std::to_string(K.DstLabel) + ", \"kind\": \"" +
               depKindName(K.Kind) + "\", \"reason\": \"" +
               enablingReasonName(K.Reason) + "\"}";
      }
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.2f", F.Plan.EstimatedSpeedup);
      Out += std::string("], \"estSpeedup\": ") + Buf;
    }
    Out += "}";
  }
  Out += "]";
}

} // namespace

std::string api::renderResult(const analysis::AnalysisResult &R,
                              const ir::AnalyzedProgram *PipelineAP) {
  std::string Out = "{\"flow\": ";
  appendDeps(Out, R.Flow);
  Out += ", \"anti\": ";
  appendDeps(Out, R.Anti);
  Out += ", \"output\": ";
  appendDeps(Out, R.Output);

  Out += ", \"pairs\": [";
  bool First = true;
  for (const analysis::PairRecord &P : R.Pairs) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "{\"write\": " + jsonAccess(*P.Write) +
           ", \"read\": " + jsonAccess(*P.Read) +
           ", \"hasFlow\": " + (P.HasFlow ? "true" : "false") +
           ", \"usedGeneralTest\": " + (P.UsedGeneralTest ? "true" : "false") +
           ", \"splitVectors\": " + (P.SplitVectors ? "true" : "false") + "}";
  }
  Out += "], \"kills\": [";
  First = true;
  for (const analysis::KillRecord &K : R.Kills) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "{\"from\": " + jsonAccess(*K.From) +
           ", \"killer\": " + jsonAccess(*K.Killer) +
           ", \"to\": " + jsonAccess(*K.To) +
           ", \"usedOmega\": " + (K.UsedOmega ? "true" : "false") +
           ", \"killed\": " + (K.Killed ? "true" : "false") + "}";
  }
  Out += "]";
  if (PipelineAP) {
    Out += ", \"pipeline\": ";
    appendPipeline(Out, *PipelineAP, R);
  }
  Out += "}";
  return Out;
}

std::string api::renderMetrics(const engine::AnalysisResult &R, unsigned Jobs,
                               double WallMs, const std::string &ProfileJson,
                               const std::string &ExplainLog) {
  char Buf[64];
  std::string Out = "{\"jobs\": " + std::to_string(Jobs);
  std::snprintf(Buf, sizeof(Buf), ", \"wallMs\": %.3f", WallMs);
  Out += Buf;

  const OmegaStats &S = R.Stats;
  Out += ", \"stats\": {\"satisfiabilityCalls\": " +
         std::to_string(S.SatisfiabilityCalls) +
         ", \"projectionCalls\": " + std::to_string(S.ProjectionCalls) +
         ", \"gistCalls\": " + std::to_string(S.GistCalls) +
         ", \"exactEliminations\": " + std::to_string(S.ExactEliminations) +
         ", \"inexactEliminations\": " + std::to_string(S.InexactEliminations) +
         ", \"splintersExplored\": " + std::to_string(S.SplintersExplored) +
         ", \"darkShadowDecided\": " + std::to_string(S.DarkShadowDecided) +
         ", \"realShadowDecided\": " + std::to_string(S.RealShadowDecided) +
         ", \"modHatSubstitutions\": " + std::to_string(S.ModHatSubstitutions) +
         ", \"gistSatTests\": " + std::to_string(S.GistSatTests) +
         ", \"resultStoreHits\": " + std::to_string(S.ResultStoreHits) +
         ", \"resultStoreMisses\": " + std::to_string(S.ResultStoreMisses) +
         ", \"resultStoreEvictions\": " +
         std::to_string(S.ResultStoreEvictions) + "}";

  if (!ProfileJson.empty()) {
    std::string Profile = ProfileJson;
    // The tracer's JSON report is pretty-printed; the response document is
    // one line, so flatten it.
    std::string Flat;
    Flat.reserve(Profile.size());
    for (char C : Profile)
      if (C != '\n')
        Flat += C;
    Out += ", \"profile\": " + Flat;
  }
  if (!ExplainLog.empty())
    Out += ", \"explain\": \"" + json::escape(ExplainLog) + "\"";
  Out += "}";
  return Out;
}

std::string api::renderDocument(const std::string &Result,
                                const std::string &Metrics) {
  return "{\"schema\": " + std::to_string(SchemaVersion) +
         ", \"ok\": true, \"result\": " + Result +
         ", \"metrics\": " + Metrics + "}\n";
}

std::string api::renderServerOk(uint64_t Id, const std::string &Result,
                                const std::string &Metrics) {
  return "{\"schema\": " + std::to_string(SchemaVersion) +
         ", \"id\": " + std::to_string(Id) +
         ", \"ok\": true, \"result\": " + Result +
         ", \"metrics\": " + Metrics + "}";
}

std::string api::renderServerOp(bool HasId, uint64_t Id, const std::string &Op,
                                const std::string &BodyKey,
                                const std::string &Body) {
  return "{\"schema\": " + std::to_string(SchemaVersion) +
         ", \"id\": " + (HasId ? std::to_string(Id) : "null") +
         ", \"ok\": true, \"op\": \"" + Op + "\", \"" + BodyKey +
         "\": " + Body + "}";
}

std::string api::renderServerError(bool HasId, uint64_t Id,
                                   const std::string &Code,
                                   const std::string &Message) {
  return "{\"schema\": " + std::to_string(SchemaVersion) +
         ", \"id\": " + (HasId ? std::to_string(Id) : "null") +
         ", \"ok\": false, \"error\": {\"code\": \"" + json::escape(Code) +
         "\", \"message\": \"" + json::escape(Message) + "\"}}";
}
