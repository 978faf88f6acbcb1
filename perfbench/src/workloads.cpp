//===- perfbench/src/workloads.cpp - The three untraced workloads ---------===//
//
// End-to-end metrics come from these runs only.  corpus-cold and
// granularity-sim measure passes over their inputs, each pass in a child
// forked from the set-up parent (see runPass); edit-serve runs its server
// and client in one forked child and verifies every response afterwards,
// in the parent, so verification never shares the CPU with the server.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/Transform.h"
#include "corpus/Harness.h"
#include "program/Program.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace granlog;

namespace granbench {

namespace {

/// W of the corpus-cold analyses: analyze_file's default, under which
/// tests/baselines/corpus_report_jobs8.txt was captured.
constexpr double CorpusW = 65.0;

/// The samples of a pass workload (corpus-cold, granularity-sim), which
/// runs the same operations in every pass.  Each operation's latency is
/// its minimum over the run's passes.  The host only ever adds time: other
/// tenants of a shared machine slow a pass by up to 1.7x, in phases from a
/// fraction of a second to minutes, so one corpus-cold pass takes from
/// 0.20 s to 0.38 s within a run.  An operation's minimum over many passes
/// is its cost on an undisturbed machine, and of the statistics tried it
/// is the one that moves least from run to run (README.md, Method notes);
/// a change to the program moves it as it moves every sample.  The
/// latency metrics are exact percentiles over operations (1012 programs,
/// 24 experiments), and ops_per_s is the number of operations over the
/// sum of their minimums.  Only the running minimums are kept, so the
/// benchmark's own memory, which every forked pass inherits and counts in
/// its RSS, does not grow with the number of passes.
struct PassStats {
  /// Per operation: the minimum whole, update and read latency in ms.
  std::vector<std::array<double, 3>> Best;
  std::vector<double> Seconds, PeakRssMb; ///< per measured pass
  uint64_t Samples = 0;

  explicit PassStats(size_t Ops)
      : Best(Ops, {HUGE_VAL, HUGE_VAL, HUGE_VAL}) {}

  void add(uint32_t Op, double UpdateMs, double ReadMs) {
    std::array<double, 3> &B = Best[Op];
    B = {std::min(B[0], UpdateMs + ReadMs), std::min(B[1], UpdateMs),
         std::min(B[2], ReadMs)};
    ++Samples;
  }

  void report(Result &R, const std::vector<double> &SetupS) const {
    std::vector<double> Op, Update, Read;
    double SumMs = 0;
    for (const std::array<double, 3> &B : Best) {
      if (B[0] == HUGE_VAL)
        continue; // never measured: every sample of it failed
      Op.push_back(B[0]);
      Update.push_back(B[1]);
      Read.push_back(B[2]);
      SumMs += B[0];
    }
    R.set("ops_per_s", SumMs > 0 ? Op.size() * 1e3 / SumMs : 0, "ops/s",
          Samples);
    R.set("p50_ms", percentile(Op, 0.50), "ms", Samples);
    R.set("p99_ms", percentile(Op, 0.99), "ms", Samples);
    R.set("update_p50_ms", percentile(Update, 0.50), "ms", Samples);
    R.set("read_p50_ms", percentile(Read, 0.50), "ms", Samples);
    R.set("setup_s", median(SetupS), "s", SetupS.size());
    if (!PeakRssMb.empty())
      R.set("peak_rss_mb", median(PeakRssMb), "MiB", PeakRssMb.size());
    char Note[192];
    std::snprintf(Note, sizeof(Note),
                  "{\"kind\": \"passes\", \"count\": %zu, "
                  "\"operations\": %zu, \"fastest_s\": %.4f, "
                  "\"median_s\": %.4f}",
                  Seconds.size(), Op.size(),
                  Seconds.empty()
                      ? 0.0
                      : *std::min_element(Seconds.begin(), Seconds.end()),
                  median(Seconds));
    R.Notes.push_back(Note);
  }
};

/// An edit-serve window in which the hypervisor stole at most this share
/// of the machine's CPU time (a twentieth of one of 4 vCPUs) counts as
/// clean.
constexpr double CleanSteal = 0.0125;

/// The raw samples of edit-serve's timed phase, in windows of about one
/// second.  Its requests differ from window to window, so they pool as
/// they are.  The run keeps its clean windows or, if fewer than half are
/// clean, the half in which the hypervisor stole the least CPU time: on a
/// shared VM, steal comes in bursts of seconds that slow every layer at
/// once.  The choice depends only on the host, never on the program.  The
/// latency metrics are exact percentiles over the kept windows' samples,
/// and the throughput comes from the kept window with the median time per
/// request.
struct Windows {
  struct Window {
    std::vector<double> OpMs, UpdateMs, ReadMs;
    double Seconds = 0;
    double Steal = 0; ///< stealShare over the window
  };
  std::vector<Window> W;

  void report(Result &R, const std::vector<double> &SetupS) {
    std::vector<Window *> Used;
    for (Window &X : W)
      if (!X.OpMs.empty() && X.Seconds > 0)
        Used.push_back(&X);
    std::stable_sort(Used.begin(), Used.end(), [](Window *A, Window *B) {
      return A->Steal < B->Steal;
    });
    size_t Total = Used.size(), Clean = 0;
    while (Clean != Total && Used[Clean]->Steal <= CleanSteal)
      ++Clean;
    Used.resize(std::max(Clean, (Total + 1) / 2));
    std::vector<double> Op, Update, Read, SecondsPerOp;
    for (Window *X : Used) {
      SecondsPerOp.push_back(X->Seconds / X->OpMs.size());
      Op.insert(Op.end(), X->OpMs.begin(), X->OpMs.end());
      Update.insert(Update.end(), X->UpdateMs.begin(), X->UpdateMs.end());
      Read.insert(Read.end(), X->ReadMs.begin(), X->ReadMs.end());
    }
    double PerOp = median(SecondsPerOp);
    R.set("ops_per_s", PerOp > 0 ? 1 / PerOp : 0, "ops/s", Op.size());
    R.set("p50_ms", percentile(Op, 0.50), "ms", Op.size());
    R.set("p99_ms", percentile(Op, 0.99), "ms", Op.size());
    R.set("update_p50_ms", percentile(Update, 0.50), "ms", Update.size());
    R.set("read_p50_ms", percentile(Read, 0.50), "ms", Read.size());
    R.set("setup_s", median(SetupS), "s", SetupS.size());
    char Note[160];
    std::snprintf(Note, sizeof(Note),
                  "{\"kind\": \"windows\", \"count\": %zu, \"used\": %zu, "
                  "\"max_steal_share_used\": %.4f}",
                  Total, Used.size(), Used.empty() ? 0.0 : Used.back()->Steal);
    R.Notes.push_back(Note);
  }
};

/// Runs \p SetUp and records how long it took in \p SetupS.
void timedSetUp(const std::function<void()> &SetUp,
                std::vector<double> &SetupS) {
  uint64_t T = nowNs();
  SetUp();
  SetupS.push_back((nowNs() - T) / 1e9);
}

/// Seconds of passes between two repetitions of the set-up.
constexpr double SetupEverySeconds = 2.5;

/// Runs passes for \p Seconds, pass k pinned to the k-th CPU the
/// benchmark may use (modulo their number), so that every operation is
/// sampled on every vCPU.  \p Body writes one pass, ending with its
/// duration in ns; \p Read consumes its operations (false = malformed).  The caller has set up once; \p SetUp
/// is repeated between passes every SetupEverySeconds, outside the
/// measured seconds, so that the set-up times sample the whole run: the
/// vCPUs of a shared VM change speed in phases of a second and more, and
/// back-to-back set-ups fall into one phase.
void timedPasses(double Seconds, const std::function<void(Blob &)> &Body,
                 const std::function<bool(Blob &)> &Read,
                 const std::function<void()> &SetUp,
                 std::vector<double> &SetupS, PassStats &S, Result &R,
                 uint64_t OpsPerPass) {
  const uint64_t Every = static_cast<uint64_t>(SetupEverySeconds * 1e9);
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t NextSetUp = nowNs() + Every;
  int Pass = 0;
  do {
    if (nowNs() >= NextSetUp) {
      uint64_t T = nowNs();
      timedSetUp(SetUp, SetupS);
      Deadline += nowNs() - T;
      NextSetUp = nowNs() + Every;
    }
    PassOutput Out = runPass(Body, Pass++);
    if (!Out.Ok || !Read(Out.Data)) {
      R.Attempted += OpsPerPass;
      R.fail(OpsPerPass, "a measured pass crashed or returned a short blob");
      continue;
    }
    double PassSeconds = Out.Data.get<uint64_t>() / 1e9;
    if (!Out.Data.ok()) {
      R.fail(1, "a measured pass returned a short blob");
      continue;
    }
    S.Seconds.push_back(PassSeconds);
    S.PeakRssMb.push_back(Out.PeakRssMb);
  } while (nowNs() < Deadline);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return In ? Buffer.str() : std::string();
}

/// Splits analyze_file's corpus dump into "==== name ====" sections.
std::map<std::string, std::string> baselineSections(const std::string &Text) {
  std::map<std::string, std::string> Out;
  std::string Name;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    Eol = Eol == std::string::npos ? Text.size() : Eol + 1;
    std::string_view Line(Text.data() + Pos, Eol - Pos);
    if (Line.rfind("==== ", 0) == 0 && Line.find(" ====", 5) != Line.npos)
      Name = std::string(Line.substr(5, Line.find(" ====", 5) - 5));
    if (!Name.empty())
      Out[Name].append(Line);
    Pos = Eol;
  }
  return Out;
}

/// The corpus-cold operation: source text to report() + explainAll(), on
/// a fresh analyzer that owns its solver cache (as analyze_file does).
struct ColdOp {
  bool Ok = false;
  uint64_t UpdateNs = 0, ReadNs = 0, Digest = 0;
  std::string Text; ///< analyze_file --explain output (when asked for)
};

ColdOp coldAnalyze(const std::string &Name, const std::string &Source,
                   bool WantText) {
  ColdOp Op;
  uint64_t T0 = nowNs();
  TermArena Arena;
  Diagnostics Diags;
  std::optional<Program> P = loadProgram(Source, Arena, Diags);
  if (!P)
    return Op;
  GranularityAnalyzer GA(*P, AnalyzerOptions{CostMetric::resolutions(),
                                             CorpusW});
  GA.run();
  uint64_t T1 = nowNs();
  std::string Report = GA.report();
  std::string Explain = GA.explainAll();
  uint64_t T2 = nowNs();
  Op.Ok = true;
  Op.UpdateNs = T1 - T0;
  Op.ReadNs = T2 - T1;
  Op.Digest = digest(Explain, digest(Report));
  if (WantText) {
    // The same text analyze_file --explain prints for a built-in.
    std::string &T = Op.Text;
    T = "==== " + Name + " ====\n";
    for (const Diagnostic &D : Diags.all())
      T += D.str() + "\n";
    T += Report + "\n== provenance ==\n" + Explain + "\n";
    TransformStats TS;
    Program Controlled = applyGranularityControl(*P, GA, &TS);
    T += "== transformed program ==\n" + programText(Controlled);
    char Tail[160];
    std::snprintf(Tail, sizeof(Tail),
                  "\n%% %u parallel sites: %u sequentialized, %u guarded, "
                  "%u kept parallel\n",
                  TS.ParallelSites, TS.Sequentialized, TS.Guarded,
                  TS.KeptParallel);
    T += Tail;
  }
  return Op;
}

} // namespace

//===----------------------------------------------------------------------===//
// corpus-cold
//===----------------------------------------------------------------------===//

Result runCorpusCold(const Options &O) {
  Result R;
  std::vector<double> SetupS;
  std::vector<GeneratedProgram> Gen;
  std::vector<ChainProgram> Programs;
  auto Pass = [&](Blob &B) {
    uint64_t Start = nowNs();
    for (uint32_t I = 0; I != Programs.size(); ++I) {
      ColdOp Op;
      try {
        Op = coldAnalyze(Programs[I].Name, Programs[I].Source, false);
      } catch (...) {
        Op.Ok = false;
      }
      B.put(I);
      B.put(Op.Ok);
      B.put(Op.UpdateNs);
      B.put(Op.ReadNs);
      B.put(Op.Digest);
    }
    B.put<uint64_t>(nowNs() - Start);
  };

  // Set-up: draw the corpus, then one discarded pass (page cache, code
  // and allocator warm-up).  Repeated during the run; the median is
  // reported.
  auto SetUp = [&] {
    Gen = corpusColdGenerated(O);
    Programs = corpusColdPrograms(Gen);
    runPass(Pass);
  };
  timedSetUp(SetUp, SetupS);
  std::set<SchemaFamily> Families;
  for (const GeneratedProgram &G : Gen)
    Families.insert(G.Family);
  if (Families.size() != NumSchemaFamilies)
    R.fail(NumSchemaFamilies - Families.size(),
           "generated corpus misses a schema family");

  PassStats S(Programs.size());
  // Per program: how many measured passes gave each report digest.
  std::vector<std::map<uint64_t, uint64_t>> Seen(Programs.size());
  std::vector<uint64_t> Bad(Programs.size());
  timedPasses(
      O.Seconds, Pass,
      [&](Blob &B) {
        for (size_t K = 0; K != Programs.size(); ++K) {
          uint32_t I = B.get<uint32_t>();
          bool Ok = B.get<bool>();
          uint64_t U = B.get<uint64_t>(), Rd = B.get<uint64_t>();
          uint64_t D = B.get<uint64_t>();
          if (I >= Programs.size())
            return false;
          ++R.Attempted;
          if (!Ok) {
            ++Bad[I];
            continue;
          }
          S.add(I, U / 1e6, Rd / 1e6);
          ++Seen[I][D];
        }
        return true;
      },
      SetUp, SetupS, S, R, Programs.size());

  // Verification, after the timed phase: a reference analysis per
  // program in this process; Table-1 programs must also reproduce the
  // checked-in analyze_file baseline byte for byte.
  std::map<std::string, std::string> Baseline =
      baselineSections(readFile("tests/baselines/corpus_report_jobs8.txt"));
  for (size_t I = 0; I != Programs.size(); ++I) {
    const ChainProgram &P = Programs[I];
    ColdOp Ref = coldAnalyze(P.Name, P.Source, P.Bench != nullptr);
    std::string Why;
    if (!Ref.Ok)
      Why = P.Name + ": does not load";
    else if (P.Bench && Baseline[P.Name] != Ref.Text)
      Why = P.Name + ": report differs from tests/baselines/"
                     "corpus_report_jobs8.txt";
    uint64_t Wrong = 0;
    for (const auto &[D, Passes] : Seen[I])
      Wrong += !Why.empty() || D != Ref.Digest ? Passes : 0;
    if (Why.empty() && Wrong)
      Why = P.Name + ": a measured pass produced a different report";
    if (Bad[I])
      R.fail(Bad[I], P.Name + ": load or analysis failed in a measured pass");
    if (Wrong)
      R.fail(Wrong, Why);
  }

  S.report(R, SetupS);
  R.set("sim_speedup_rolog",
        simulatedSpeedup(Programs, MachineConfig::rolog(), R), "ratio",
        Programs.size());
  R.set("sim_speedup_andprolog",
        simulatedSpeedup(Programs, MachineConfig::andProlog(), R), "ratio",
        Programs.size());
  return R;
}

//===----------------------------------------------------------------------===//
// granularity-sim
//===----------------------------------------------------------------------===//

Result runGranularitySim(const Options &O) {
  Result R;
  std::vector<double> SetupS;
  std::vector<ChainProgram> Exps;
  auto Pass = [&](Blob &B) {
    uint64_t Start = nowNs();
    for (uint32_t I = 0; I != Exps.size(); ++I) {
      uint64_t U = 0, Rd = 0;
      Experiment E;
      try {
        E = runExperiment(Exps[I], Exps[I].Machine, &U, &Rd);
      } catch (...) {
        E.Ok = false;
      }
      B.put(I);
      B.put(E.Ok);
      B.put(U);
      B.put(Rd);
      B.put(E.T0);
      B.put(E.T1);
      B.put(E.Tasks0);
      B.put(E.Tasks1);
    }
    B.put<uint64_t>(nowNs() - Start);
  };
  // Set-up: build the experiments, then one discarded pass.  Repeated
  // during the run; the median is reported.
  auto SetUp = [&] {
    Exps = simExperiments();
    if (O.Small)
      Exps.erase(std::remove_if(Exps.begin(), Exps.end(),
                                [](const ChainProgram &P) {
                                  return P.Name.rfind("fib@", 0) != 0 &&
                                         P.Name.rfind("hanoi@", 0) != 0;
                                }),
                 Exps.end());
    runPass(Pass);
  };
  timedSetUp(SetUp, SetupS);

  PassStats S(Exps.size());
  struct Seen {
    double T0 = -1, T1 = -1;
    unsigned Tasks0 = 0, Tasks1 = 0;
    uint64_t Mismatch = 0, Bad = 0, Runs = 0;
  };
  std::vector<Seen> Obs(Exps.size());
  timedPasses(
      O.Seconds, Pass,
      [&](Blob &B) {
        for (size_t K = 0; K != Exps.size(); ++K) {
          uint32_t I = B.get<uint32_t>();
          bool Ok = B.get<bool>();
          uint64_t U = B.get<uint64_t>(), Rd = B.get<uint64_t>();
          double T0 = B.get<double>(), T1 = B.get<double>();
          unsigned K0 = B.get<unsigned>(), K1 = B.get<unsigned>();
          if (I >= Exps.size())
            return false;
          ++R.Attempted;
          Seen &X = Obs[I];
          ++X.Runs;
          if (!Ok) {
            ++X.Bad;
            continue;
          }
          S.add(I, U / 1e6, Rd / 1e6);
          if (X.T0 < 0) {
            X.T0 = T0, X.T1 = T1, X.Tasks0 = K0, X.Tasks1 = K1;
          } else if (X.T0 != T0 || X.T1 != T1 || X.Tasks0 != K0 ||
                     X.Tasks1 != K1) {
            ++X.Mismatch;
          }
        }
        return true;
      },
      SetUp, SetupS, S, R, Exps.size());

  // Verification: corpus/Harness's runBenchmark is the reference for
  // what one experiment computes; the measured chain must agree with it.
  double LogSum[2] = {0, 0};
  unsigned N[2] = {0, 0};
  for (size_t I = 0; I != Exps.size(); ++I) {
    const ChainProgram &P = Exps[I];
    Seen &X = Obs[I];
    if (X.Bad)
      R.fail(X.Bad, P.Name + ": a run aborted or T1's answer differs");
    if (X.Mismatch)
      R.fail(X.Mismatch, P.Name + ": passes disagree on T0/T1");
    if (X.T0 < 0)
      continue;
    HarnessConfig HC;
    HC.Machine = P.Machine;
    BenchmarkRun Ref = runBenchmark(*P.Bench, P.Input, HC);
    if (!Ref.Ok0 || !Ref.Ok1 || Ref.Sim0.ParallelTime != X.T0 ||
        Ref.Sim1.ParallelTime != X.T1 || Ref.Sim0.TasksSpawned != X.Tasks0 ||
        Ref.Sim1.TasksSpawned != X.Tasks1) {
      R.fail(X.Runs - X.Bad - X.Mismatch,
             P.Name + ": differs from runBenchmark");
      continue;
    }
    int M = P.Machine.Name == MachineConfig::rolog().Name ? 0 : 1;
    LogSum[M] += std::log(X.T0 / X.T1);
    ++N[M];
  }
  S.report(R, SetupS);
  R.set("sim_speedup_rolog", N[0] ? std::exp(LogSum[0] / N[0]) : 0, "ratio",
        N[0]);
  R.set("sim_speedup_andprolog", N[1] ? std::exp(LogSum[1] / N[1]) : 0,
        "ratio", N[1]);
  return R;
}

//===----------------------------------------------------------------------===//
// edit-serve
//===----------------------------------------------------------------------===//

namespace {

std::string socketPath(const Options &O) {
  return O.OutDir + "/gb" + std::to_string(::getpid()) + ".sock";
}

void putServerRun(Blob &B, const ServerRun &Run) {
  B.put(Run.SetupSeconds);
  B.put(Run.TimedSeconds);
  B.put(Run.Sent);
  B.put(Run.Ok);
  B.put(Run.NotOk);
  B.put(Run.Dropped);
  B.putString(Run.Error);
  for (unsigned C = 0; C != Run.Steps.size(); ++C) {
    B.put<uint64_t>(Run.Steps[C].size());
    for (size_t I = 0; I != Run.Steps[C].size(); ++I) {
      B.put(Run.Steps[C][I]);
      B.put(I < Run.Digest[C].size() ? Run.Digest[C][I] : 0);
      B.put(I < Run.LatMs[C].size() ? Run.LatMs[C][I] : 0.0);
      B.put(I < Run.DoneAtS[C].size() ? Run.DoneAtS[C][I] : -1.0);
    }
  }
  B.put<uint64_t>(Run.Soak.size());
  for (const auto &Row : Run.Soak)
    B.put(Row);
  B.put<uint64_t>(Run.SecondTicks.size());
  for (size_t I = 0; I != Run.SecondTicks.size(); ++I) {
    B.put(Run.SecondTicks[I]);
    B.put(Run.SecondAtS[I]);
  }
}

ServerRun getServerRun(Blob &B) {
  ServerRun Run;
  Run.SetupSeconds = B.get<double>();
  Run.TimedSeconds = B.get<double>();
  Run.Sent = B.get<uint64_t>();
  Run.Ok = B.get<uint64_t>();
  Run.NotOk = B.get<uint64_t>();
  Run.Dropped = B.get<uint64_t>();
  Run.Error = B.getString();
  Run.Steps.resize(Clients);
  Run.Digest.resize(Clients);
  Run.LatMs.resize(Clients);
  Run.DoneAtS.resize(Clients);
  for (unsigned C = 0; C != Clients && B.ok(); ++C) {
    uint64_t N = B.get<uint64_t>();
    for (uint64_t I = 0; I != N && B.ok(); ++I) {
      Run.Steps[C].push_back(B.get<Step>());
      Run.Digest[C].push_back(B.get<uint64_t>());
      Run.LatMs[C].push_back(B.get<double>());
      Run.DoneAtS[C].push_back(B.get<double>());
    }
  }
  uint64_t N = B.get<uint64_t>();
  for (uint64_t I = 0; I != N && B.ok(); ++I)
    Run.Soak.push_back(B.get<std::array<double, 4>>());
  N = B.get<uint64_t>();
  for (uint64_t I = 0; I != N && B.ok(); ++I) {
    Run.SecondTicks.push_back(B.get<CpuTicks>());
    Run.SecondAtS.push_back(B.get<double>());
  }
  return Run;
}

} // namespace

ServerRun serveInChild(const Options &O, ProgramPool &Pool,
                       const std::function<Step(unsigned, uint64_t)> &Script,
                       unsigned Warmup, double Seconds,
                       uint64_t MaxPerClient) {
  PassOutput Out = runPass([&](Blob &B) {
    // The child's pool only builds request texts, which it copies, so it
    // keeps just the bases in use: its memory is part of the server
    // process's RSS, and must not grow with the script.
    Pool.limitBases(4 * Clients);
    putServerRun(B, runServer(Pool, Script, Warmup, Seconds, MaxPerClient,
                              socketPath(O)));
  });
  if (!Out.Ok) {
    ServerRun Failed;
    Failed.Error = "server child crashed";
    return Failed;
  }
  ServerRun Run = getServerRun(Out.Data);
  if (!Out.Data.ok())
    Run.Error = "short server blob";
  return Run;
}

Result runEditServe(const Options &O) {
  Result R;
  ProgramPool Pool(O.Seed);
  auto Script = [](unsigned C, uint64_t I) {
    return EditScript(C).at(I);
  };
  unsigned Warmup = O.Small ? 8 : 96;

  // Set-up (server start, connections, hello, warm-up) eight times on its
  // own, then once more in front of the timed phase.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != 8; ++Rep) {
    ServerRun Run = serveInChild(O, Pool, Script, Warmup, 0, 0);
    if (Run.Error.empty())
      SetupS.push_back(Run.SetupSeconds);
  }
  ServerRun Run = serveInChild(O, Pool, Script, Warmup, O.Seconds, 0);
  SetupS.push_back(Run.SetupSeconds);
  if (!Run.Error.empty())
    R.fail(1, "edit-serve: " + Run.Error);

  // Verification: replay each client's script directly through
  // AnalysisSession (one thread per client, after the server is gone).
  std::vector<uint64_t> Mismatch(Clients), NotOk(Clients);
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        ProgramPool Local(O.Seed);
        std::vector<uint64_t> Expect =
            replayDirect(Local, Run.Steps[C], C, nullptr, nullptr);
        for (size_t I = 0; I != Expect.size(); ++I) {
          if (Run.Digest[C][I] == 0)
            ++NotOk[C];
          else if (Run.Digest[C][I] != Expect[I])
            ++Mismatch[C];
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  // About one window per second of the timed phase, bounded by the
  // responses that crossed each whole second; requests answered after the
  // last boundary are verified but not timed.
  Windows S;
  const std::vector<double> &Edge = Run.SecondAtS;
  S.W.resize(Edge.empty() ? 0 : Edge.size() - 1);
  for (size_t K = 0; K != S.W.size(); ++K) {
    S.W[K].Seconds = Edge[K + 1] - Edge[K];
    S.W[K].Steal = stealShare(Run.SecondTicks[K], Run.SecondTicks[K + 1]);
  }
  for (unsigned C = 0; C != Clients; ++C) {
    R.Attempted += Run.Steps[C].size();
    if (NotOk[C])
      R.fail(NotOk[C], "client " + std::to_string(C) + ": non-Ok responses");
    if (Mismatch[C])
      R.fail(Mismatch[C], "client " + std::to_string(C) +
                              ": response digest differs from the direct "
                              "AnalysisSession replay");
    for (size_t I = 0; I != Run.Steps[C].size(); ++I) {
      double At = Run.DoneAtS[C][I];
      if (S.W.empty() || At < 0 || At >= Edge.back())
        continue;
      size_t K = std::upper_bound(Edge.begin(), Edge.end(), At) - Edge.begin();
      Windows::Window &Win = S.W[K - 1];
      double Ms = Run.LatMs[C][I];
      Win.OpMs.push_back(Ms);
      (Run.Steps[C][I].K == Step::Update ? Win.UpdateMs : Win.ReadMs)
          .push_back(Ms);
    }
  }
  S.report(R, SetupS);

  // The server process's peak RSS over its first RssAtRequests requests:
  // a fixed amount of work, so a faster server that gets through more
  // fresh programs in the run does not read as a memory regression.  A
  // run too short to reach it has no such figure: that is a failure.
  // The process also holds the client thread, whose program cache is
  // bounded (limitBases).
  const double RssAtRequests = O.Small ? 2000 : 30000;
  double PeakRss = 0;
  if (Run.Soak.empty() || Run.Soak.back()[0] < RssAtRequests)
    R.fail(1, "peak_rss_mb: the run ended before " +
                  std::to_string(static_cast<int>(RssAtRequests)) +
                  " requests");
  std::string Soak = "{\"kind\": \"soak\", \"columns\": [\"requests\", "
                     "\"expr_arena_bytes\", \"rss_mb\", \"peak_rss_mb\"], "
                     "\"rows\": [";
  for (size_t I = 0; I != Run.Soak.size(); ++I) {
    char Row[128];
    std::snprintf(Row, sizeof(Row), "%s[%.0f, %.0f, %.2f, %.2f]",
                  I ? ", " : "", Run.Soak[I][0], Run.Soak[I][1],
                  Run.Soak[I][2], Run.Soak[I][3]);
    Soak += Row;
    if (Run.Soak[I][0] <= RssAtRequests)
      PeakRss = Run.Soak[I][3];
  }
  R.set("peak_rss_mb", PeakRss, "MiB", 1);
  R.Notes.push_back(Soak + "]}");

  // The paper's result on this workload's programs: the first base
  // programs of the script (a fixed set, whatever the run's length).
  std::vector<ChainProgram> Bases;
  for (int32_t B = 0; B != (O.Small ? 8 : 1000); ++B) {
    ChainProgram P;
    P.Gen = &Pool.get(B);
    P.Name = P.Gen->Name;
    P.Source = P.Gen->Source;
    P.Input = P.Gen->DefaultInput;
    Bases.push_back(std::move(P));
  }
  R.set("sim_speedup_rolog",
        simulatedSpeedup(Bases, MachineConfig::rolog(), R), "ratio",
        Bases.size());
  R.set("sim_speedup_andprolog",
        simulatedSpeedup(Bases, MachineConfig::andProlog(), R), "ratio",
        Bases.size());
  return R;
}

} // namespace granbench
