//===- perfbench/src/traced.cpp - The traced run: per-layer metrics -------===//
//
// The traced run measures each layer by calling its public entry points
// from this file, with a span around every call.  It replays the
// workload's own inputs through three probes, each in a child forked from
// the same set-up state:
//
//   chain    every program through the pipeline layer by layer, in the
//            order GranularityAnalyzer::run uses at jobs=1:
//            loadProgram -> CallGraph -> ModeTable -> Determinacy ->
//            SizeAnalysis::run -> CostAnalysis::run -> computeThreshold ->
//            applyGranularityControl -> Interpreter::solve -> simulate.
//            The cost function and threshold per predicate are checked
//            against GranularityAnalyzer::run on the same program, so the
//            traced chain measures the same analysis.  Passes alternate
//            untraced and traced; their ratio is the tracing overhead.
//   session  the workload's edit script (for corpus-cold and
//            granularity-sim: each program as one Update + Explain)
//            replayed through AnalysisSession::update with no server.
//   server   the same script through an in-process AnalysisServer; per
//            request, server overhead = request latency - reader time -
//            session update time measured by the session probe.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/GranularityAnalyzer.h"
#include "core/Threshold.h"
#include "core/Transform.h"
#include "corpus/Harness.h"
#include "diffeq/SolverCache.h"
#include "expr/ExprInterner.h"
#include "interp/Interpreter.h"
#include "program/CallGraph.h"
#include "program/Program.h"
#include "support/Stats.h"
#include "term/TermWriter.h"
#include "term/Unify.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace granlog;

namespace granbench {

namespace {

/// Counts one chain operation produced (the layer times are in spans).
struct ChainOut {
  bool Ok = true;
  bool HasGoal = false;
  uint32_t Clauses = 0;
  uint64_t Solves = 0, Hits = 0, Misses = 0;
  uint64_t Resolutions = 0, GrainTests = 0;
  uint32_t Tasks0 = 0, Tasks1 = 0;
  double Overhead1 = 0;
};

struct Ids {
  uint16_t Op = spanId("op"), Reader = spanId("reader"),
           CallGraph = spanId("program.callgraph"),
           Modes = spanId("analysis.modes"),
           Det = spanId("analysis.determinacy"), Size = spanId("size.run"),
           Cost = spanId("cost.run"), Threshold = spanId("core.threshold"),
           Check = spanId("check.reference"),
           Transform = spanId("core.transform"),
           Interp = spanId("interp.solve"), Sim = spanId("runtime.simulate"),
           Session = spanId("core.session_update");
};
const Ids &ids() {
  static const Ids I;
  return I;
}

ChainOut chainOp(const ChainProgram &Prog, SpanLog *L, std::string &Why) {
  const Ids &Id = ids();
  ChainOut Out;
  Scope OpSpan(L, Id.Op);
  TermArena Arena;
  Diagnostics Diags;
  std::optional<Program> P;
  {
    Scope S(L, Id.Reader);
    P = loadProgram(Prog.Source, Arena, Diags);
  }
  if (!P) {
    Out.Ok = false;
    Why = Prog.Name + ": does not load";
    return Out;
  }
  for (const auto &Pred : P->predicates())
    Out.Clauses += static_cast<uint32_t>(Pred->clauses().size());

  std::unique_ptr<CallGraph> CG;
  std::unique_ptr<ModeTable> Modes;
  std::unique_ptr<Determinacy> Det;
  std::unique_ptr<SizeAnalysis> Sizes;
  std::unique_ptr<CostAnalysis> Costs;
  SolverCache Cache;
  StatsRegistry Stats;
  {
    Scope S(L, Id.CallGraph);
    CG = std::make_unique<CallGraph>(*P);
  }
  {
    Scope S(L, Id.Modes);
    Modes = std::make_unique<ModeTable>(*P, *CG);
  }
  {
    Scope S(L, Id.Det);
    Det = std::make_unique<Determinacy>(*P, *Modes);
  }
  {
    Scope S(L, Id.Size);
    Sizes = std::make_unique<SizeAnalysis>(*P, *CG, *Modes);
    Sizes->setStats(&Stats);
    Sizes->setSolverCache(&Cache);
    Sizes->run();
  }
  {
    Scope S(L, Id.Cost);
    Costs = std::make_unique<CostAnalysis>(*P, *CG, *Modes, *Det, *Sizes,
                                           CostMetric::resolutions(), nullptr);
    Costs->setStats(&Stats);
    Costs->setSolverCache(&Cache);
    Costs->run();
  }
  Out.Solves = Stats.counter("size.solver.solve") +
               Stats.counter("cost.solver.solve");
  Out.Hits = Cache.hits();
  Out.Misses = Cache.misses();

  const double W = Prog.Machine.taskOverhead();
  std::vector<std::pair<ExprRef, ThresholdInfo>> Mine;
  {
    Scope S(L, Id.Threshold);
    for (const auto &Pred : P->predicates()) {
      const BoundInterval &Cost = Costs->info(Pred->functor()).Cost;
      ExprRef Fn = Cost.Hi ? Cost.Hi : makeInfinity();
      std::vector<std::string> Vars = exprVariables(Fn);
      Mine.emplace_back(Fn, computeThreshold(Fn, Vars.size() == 1
                                                     ? Vars[0]
                                                     : std::string("n1"),
                                             W));
    }
  }

  // The reference: GranularityAnalyzer::run on the same program.  The
  // transform needs its results, so it runs on every pass; its span keeps
  // its time out of every layer's self time.
  GranularityAnalyzer GA(*P, AnalyzerOptions{CostMetric::resolutions(), W});
  {
    Scope S(L, Id.Check);
    GA.run();
    size_t K = 0;
    for (const auto &Pred : P->predicates()) {
      const PredicateGranularity &G = GA.info(Pred->functor());
      const auto &[Fn, T] = Mine[K++];
      bool Same = exprText(G.CostFn) == exprText(Fn);
      if (G.Directive == ParallelDecl::None)
        Same = Same && G.Threshold.Class == T.Class &&
               (T.Class != GrainClass::RuntimeTest ||
                G.Threshold.Threshold == T.Threshold);
      if (!Same) {
        Out.Ok = false;
        Why = Prog.Name + ": layer-by-layer cost of " +
              P->symbols().text(Pred->functor()) +
              " differs from GranularityAnalyzer::run";
      }
    }
  }

  std::optional<Program> Controlled;
  {
    Scope S(L, Id.Transform);
    Controlled.emplace(applyGranularityControl(*P, GA));
  }
  if (!Prog.hasGoal())
    return Out;

  Out.HasGoal = true;
  InterpOptions IO = interpOptionsFor(Prog.Machine);
  std::string Answer[2];
  for (int Side = 0; Side != 2; ++Side) {
    const Term *Goal = Prog.goal(Arena);
    std::unique_ptr<CostNode> Tree;
    bool Solved = false;
    InterpCounters C;
    {
      Scope S(L, Id.Interp);
      Interpreter I(Side == 0 ? *P : *Controlled, Arena, IO);
      Solved = Goal && I.solve(Goal) && !I.aborted();
      C = I.counters();
      Tree = I.takeTree();
    }
    Out.Resolutions += C.Resolutions;
    if (Side == 1)
      Out.GrainTests = C.GrainTests;
    if (!Solved || !Tree) {
      Out.Ok = false;
      Why = Prog.Name + ": goal failed or aborted";
      return Out;
    }
    Answer[Side] = termText(resolve(Goal, Arena), Arena.symbols());
    SimResult Sim;
    {
      Scope S(L, Id.Sim);
      Sim = simulate(*Tree, Prog.Machine);
    }
    (Side == 0 ? Out.Tasks0 : Out.Tasks1) = Sim.TasksSpawned;
    if (Side == 1)
      Out.Overhead1 = Sim.OverheadUnits;
  }
  if (Answer[0] != Answer[1]) {
    Out.Ok = false;
    Why = Prog.Name + ": controlled answer differs";
  }
  return Out;
}

void putSpans(Blob &B, const std::vector<Span> &Spans) {
  B.put<uint64_t>(Spans.size());
  for (const Span &S : Spans)
    B.put(S);
}

std::vector<Span> getSpans(Blob &B) {
  std::vector<Span> Spans(B.get<uint64_t>());
  for (Span &S : Spans)
    S = B.get<Span>();
  return Spans;
}

uint64_t arenaNodes() { return ExprInterner::global().counters().ArenaNodes; }
uint64_t arenaBytes() { return ExprInterner::global().counters().ArenaBytes; }

/// Per-op self time of each layer (ms), summed over an op's spans of that
/// layer, appended to \p PerLayer[layer].
void layerSamples(const std::vector<Span> &Spans,
                  std::map<std::string, std::vector<double>> &PerLayer,
                  std::map<uint32_t, std::map<uint16_t, double>> *ByOp) {
  std::vector<uint64_t> Self = selfTimes(Spans);
  std::map<uint32_t, std::map<uint16_t, double>> Local;
  auto &Ops = ByOp ? *ByOp : Local;
  for (size_t I = 0; I != Spans.size(); ++I)
    Ops[Spans[I].Op][Spans[I].Name] += Self[I] / 1e6;
  for (const auto &[Op, Layers] : Ops)
    for (const auto &[Name, Ms] : Layers)
      PerLayer[spanNames()[Name]].push_back(Ms);
}

} // namespace

Result runTraced(const Options &O) {
  Result R;
  ProgramPool Pool(O.Seed);
  std::vector<GeneratedProgram> Gen;
  std::vector<ChainProgram> Chain;
  std::vector<std::vector<Step>> Scripts(Clients);
  bool SessionPrimary = false;

  if (O.Workload == "edit-serve") {
    SessionPrimary = true;
    std::set<std::pair<int32_t, int32_t>> Revisions;
    for (unsigned C = 0; C != Clients; ++C)
      for (uint64_t I = 0; I != (O.Small ? 16u : 128u); ++I) {
        Step S = EditScript(C).at(I);
        Scripts[C].push_back(S);
        if (S.K == Step::Update && Revisions.insert({S.Base, S.Extra}).second) {
          ChainProgram P;
          P.Gen = &Pool.get(S.Base);
          P.Name = P.Gen->Name + (S.Extra >= 0 ? "+" + std::to_string(S.Extra)
                                               : std::string());
          P.Source = Pool.source(S);
          P.Input = P.Gen->DefaultInput;
          Chain.push_back(std::move(P));
        }
      }
  } else {
    if (O.Workload == "corpus-cold") {
      Gen = corpusColdGenerated(O);
      Chain = corpusColdPrograms(Gen);
    } else {
      Chain = simExperiments();
    }
    // Each program (once, not once per machine) as one Update plus an
    // Explain, round-robin over the clients: the session and server layers
    // on this workload's inputs.  Table-1 programs come first in Chain, in
    // corpus order, so a Table-1 program's index is its corpus index.
    for (size_t I = 0; I != Chain.size(); ++I) {
      if (Chain[I].Machine.Name != MachineConfig::rolog().Name)
        continue;
      Step S;
      S.Table1 = Chain[I].Bench != nullptr;
      S.Base = static_cast<int32_t>(S.Table1 ? I : Chain[I].Gen->Index);
      Scripts[I % Clients].push_back(S);
      S.K = Step::Explain;
      Scripts[I % Clients].push_back(S);
    }
  }

  // --- chain probe: untraced and traced passes, alternating -------------
  auto ChainPass = [&](Blob &B, bool Traced) {
    SpanLog Log;
    uint64_t Nodes0 = arenaNodes(), Bytes0 = arenaBytes();
    uint64_t Start = nowNs();
    for (uint32_t I = 0; I != Chain.size(); ++I) {
      Log.Op = I;
      std::string Why;
      ChainOut Out = chainOp(Chain[I], Traced ? &Log : nullptr, Why);
      B.put(Out);
      B.putString(Why);
    }
    B.put<uint64_t>(nowNs() - Start);
    B.put<uint64_t>(arenaNodes() - Nodes0);
    B.put<uint64_t>(arenaBytes() - Bytes0);
    putSpans(B, Log.Spans);
  };
  std::vector<double> PassMs[2];
  std::map<std::string, std::vector<double>> PerLayer;
  std::vector<Span> AllSpans;
  std::vector<ChainOut> Outs;
  double ArenaNodesPerKop = -1, ArenaBytesPerKop = -1;
  // Most of the run goes to chain passes; the session and server probes
  // replay their scripts once.
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(O.Seconds * 0.6e9);
  for (int Pair = 0; Pair == 0 || (nowNs() < Deadline && Pair < 8); ++Pair)
    for (int Traced = 0; Traced != 2; ++Traced) {
      PassOutput P =
          runPass([&](Blob &B) { ChainPass(B, Traced == 1); });
      R.Attempted += Chain.size();
      if (!P.Ok) {
        R.fail(Chain.size(), "a chain pass crashed");
        continue;
      }
      for (size_t I = 0; I != Chain.size(); ++I) {
        ChainOut Out = P.Data.get<ChainOut>();
        std::string Why = P.Data.getString();
        if (!Out.Ok)
          R.fail(1, Why);
        if (Traced)
          Outs.push_back(Out);
      }
      PassMs[Traced].push_back(P.Data.get<uint64_t>() / 1e6);
      uint64_t Nodes = P.Data.get<uint64_t>(), Bytes = P.Data.get<uint64_t>();
      if (ArenaNodesPerKop < 0 && !SessionPrimary) {
        ArenaNodesPerKop = Nodes * 1000.0 / Chain.size();
        ArenaBytesPerKop = Bytes * 1000.0 / Chain.size();
      }
      std::vector<Span> Spans = getSpans(P.Data);
      if (Traced) {
        for (Span &S : Spans)
          S.Op += static_cast<uint32_t>(Pair) << 20;
        layerSamples(Spans, PerLayer, nullptr);
        AllSpans.insert(AllSpans.end(), Spans.begin(), Spans.end());
      }
    }

  // --- session probe ------------------------------------------------------
  std::vector<std::vector<uint64_t>> Direct(Clients);
  std::vector<double> Reused;
  std::map<uint32_t, std::map<uint16_t, double>> SessionByOp;
  std::map<std::string, std::vector<double>> SessionLayers;
  {
    PassOutput P = runPass([&](Blob &B) {
      SpanLog Log;
      std::vector<double> Ratios;
      uint64_t Nodes0 = arenaNodes(), Bytes0 = arenaBytes();
      for (unsigned C = 0; C != Clients; ++C) {
        std::vector<uint64_t> D = replayDirect(Pool, Scripts[C], C, &Log,
                                               &Ratios);
        B.put<uint64_t>(D.size());
        for (uint64_t X : D)
          B.put(X);
      }
      B.put<uint64_t>(arenaNodes() - Nodes0);
      B.put<uint64_t>(arenaBytes() - Bytes0);
      B.put<uint64_t>(Ratios.size());
      for (double X : Ratios)
        B.put(X);
      putSpans(B, Log.Spans);
    });
    uint64_t Requests = 0;
    for (const auto &S : Scripts)
      Requests += S.size();
    R.Attempted += Requests;
    if (!P.Ok) {
      R.fail(Requests, "the session probe crashed");
    } else {
      for (unsigned C = 0; C != Clients; ++C) {
        Direct[C].resize(P.Data.get<uint64_t>());
        for (uint64_t &X : Direct[C])
          X = P.Data.get<uint64_t>();
      }
      uint64_t Nodes = P.Data.get<uint64_t>(), Bytes = P.Data.get<uint64_t>();
      if (SessionPrimary) {
        ArenaNodesPerKop = Nodes * 1000.0 / Requests;
        ArenaBytesPerKop = Bytes * 1000.0 / Requests;
      }
      Reused.resize(P.Data.get<uint64_t>());
      for (double &X : Reused)
        X = P.Data.get<double>();
      std::vector<Span> Spans = getSpans(P.Data);
      layerSamples(Spans, SessionLayers, &SessionByOp);
      for (Span &S : Spans)
        S.Op |= 1u << 31;
      AllSpans.insert(AllSpans.end(), Spans.begin(), Spans.end());
    }
  }

  // --- server probe -------------------------------------------------------
  uint64_t MaxLen = 0;
  for (const auto &S : Scripts)
    MaxLen = std::max<uint64_t>(MaxLen, S.size());
  ServerRun Run = serveInChild(
      O, Pool,
      [&](unsigned C, uint64_t I) {
        // Clients with shorter scripts repeat their last read.
        return I < Scripts[C].size() ? Scripts[C][I] : Scripts[C].back();
      },
      0, 120, MaxLen);
  std::vector<double> OverheadMs;
  uint64_t ServerFailed = Run.NotOk;
  if (!Run.Error.empty())
    R.fail(1, "server probe: " + Run.Error);
  for (unsigned C = 0; C != Clients; ++C) {
    R.Attempted += Run.Steps[C].size();
    for (size_t I = 0; I != Run.Steps[C].size() && I < Scripts[C].size();
         ++I) {
      if (I < Direct[C].size() && Run.Digest[C][I] != Direct[C][I]) {
        ++ServerFailed;
        R.fail(1, "server probe: response differs from the direct replay");
      }
      if (Scripts[C][I].K != Step::Update)
        continue;
      auto It = SessionByOp.find(static_cast<uint32_t>(C * 1000000 + I));
      if (It == SessionByOp.end())
        continue;
      OverheadMs.push_back(Run.LatMs[C][I] - It->second[ids().Reader] -
                           It->second[ids().Session]);
    }
  }

  // --- metrics --------------------------------------------------------------
  auto Med = [&](const char *Layer) {
    return median(PerLayer[Layer]);
  };
  auto N = [&](const char *Layer) { return PerLayer[Layer].size(); };
  double ReaderMs = 0, InterpMs = 0;
  uint64_t Clauses = 0, Resolutions = 0, Solves = 0, Hits = 0, Misses = 0;
  double GrainTests = 0, Tasks0 = 0, Tasks1 = 0, Overhead1 = 0;
  unsigned WithGoal = 0;
  for (double X : PerLayer["reader"])
    ReaderMs += X;
  for (double X : PerLayer["interp.solve"])
    InterpMs += X;
  for (const ChainOut &Out : Outs) {
    Clauses += Out.Clauses;
    Solves += Out.Solves;
    Hits += Out.Hits;
    Misses += Out.Misses;
    if (!Out.HasGoal)
      continue;
    ++WithGoal;
    Resolutions += Out.Resolutions;
    GrainTests += Out.GrainTests;
    Tasks0 += Out.Tasks0;
    Tasks1 += Out.Tasks1;
    Overhead1 += Out.Overhead1;
  }
  double Ops = std::max<size_t>(Outs.size(), 1);
  double Goals = std::max(WithGoal, 1u);
  R.set("reader.load_ms", Med("reader"), "ms", N("reader"));
  R.set("reader.clauses_per_s", ReaderMs > 0 ? Clauses / (ReaderMs / 1e3) : 0,
        "clauses/s", N("reader"));
  R.set("program.callgraph_ms", Med("program.callgraph"), "ms",
        N("program.callgraph"));
  R.set("analysis.modes_ms", Med("analysis.modes"), "ms", N("analysis.modes"));
  R.set("analysis.determinacy_ms", Med("analysis.determinacy"), "ms",
        N("analysis.determinacy"));
  R.set("size.run_ms", Med("size.run"), "ms", N("size.run"));
  R.set("cost.run_ms", Med("cost.run"), "ms", N("cost.run"));
  R.set("diffeq.solves", Solves / Ops, "count", Outs.size());
  R.set("diffeq.cache_hit_ratio",
        Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0,
        "ratio", Hits + Misses);
  R.set("expr.arena_nodes_per_kop", std::max(ArenaNodesPerKop, 0.0), "count",
        1);
  R.set("expr.arena_bytes_per_kop", std::max(ArenaBytesPerKop, 0.0), "bytes",
        1);
  R.set("core.threshold_ms", Med("core.threshold"), "ms", N("core.threshold"));
  R.set("core.transform_ms", Med("core.transform"), "ms", N("core.transform"));
  R.set("core.session_update_ms", median(SessionLayers["core.session_update"]),
        "ms", SessionLayers["core.session_update"].size());
  double ReusedMean = 0;
  for (double X : Reused)
    ReusedMean += X / Reused.size();
  R.set("core.sccs_reused_ratio", ReusedMean, "ratio", Reused.size());
  R.set("server.overhead_ms", median(OverheadMs), "ms", OverheadMs.size());
  R.set("server.responses_ok", static_cast<double>(Run.Ok), "count", 1);
  R.set("server.responses_failed", static_cast<double>(ServerFailed), "count",
        1);
  R.set("server.dropped", static_cast<double>(Run.Dropped), "count", 1);
  R.set("interp.solve_ms", Med("interp.solve"), "ms", N("interp.solve"));
  R.set("interp.resolutions_per_s",
        InterpMs > 0 ? Resolutions / (InterpMs / 1e3) : 0, "1/s", WithGoal);
  R.set("interp.grain_tests", GrainTests / Goals, "count", WithGoal);
  R.set("runtime.simulate_ms", Med("runtime.simulate"), "ms",
        N("runtime.simulate"));
  R.set("runtime.tasks_spawned_t0", Tasks0 / Goals, "count", WithGoal);
  R.set("runtime.tasks_spawned_t1", Tasks1 / Goals, "count", WithGoal);
  R.set("runtime.overhead_units", Overhead1 / Goals, "units", WithGoal);
  double Untraced = median(PassMs[0]), Traced = median(PassMs[1]);
  R.set("trace.overhead_ratio", Untraced > 0 ? Traced / Untraced : 0, "ratio",
        PassMs[1].size());

  // Self time per layer, including the benchmark's own glue ("op") and the
  // reference analysis, for the human-readable ledger.
  std::string Self = "{\"kind\": \"self_time_ms_median\", \"layers\": {";
  bool First = true;
  for (auto &[Name, Samples] : PerLayer) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": [%.6f, %zu]", First ? "" : ", ",
                  Name.c_str(), median(Samples), Samples.size());
    Self += Buf;
    First = false;
  }
  R.Notes.push_back(Self + "}}");
  std::string SpanFile = O.OutDir + "/spans-" + O.Workload + "-seed" +
                         std::to_string(O.Seed) + ".json";
  if (writeSpans(SpanFile, AllSpans))
    R.Notes.push_back("{\"kind\": \"spans\", \"path\": \"" + SpanFile +
                      "\", \"count\": " + std::to_string(AllSpans.size()) +
                      "}");
  return R;
}

} // namespace granbench
