//===- perfbench/src/bench.h - Shared pieces of the GranLog benchmark -----===//
//
// The benchmark binary runs one workload per invocation (see README.md).
// This header holds what the workloads share: exact percentiles over raw
// samples, the fork-per-pass runner that gives every measured repetition
// the same expression-interner state, the in-memory span log of the
// traced run, and the edit scripts the server and session layers replay.
//
//===----------------------------------------------------------------------===//

#ifndef GRANBENCH_BENCH_H
#define GRANBENCH_BENCH_H

#include "corpus/Corpus.h"
#include "program/Generator.h"
#include "runtime/Scheduler.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace granbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// FNV-1a 64 over bytes: the digest every correctness gate compares.
inline uint64_t digest(std::string_view S, uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Exact percentile (nearest rank) of raw samples; the samples are
/// sorted in place.  Returns 0 for an empty vector.
double percentile(std::vector<double> &Samples, double Q);
double median(std::vector<double> Samples);

/// One end-to-end or per-layer metric as printed.
struct Metric {
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0; ///< raw samples behind the value (1 for derived)
};

/// The result of one workload run: the last stdout line is built from it.
/// Every failed correctness gate counts in Failed; the run is correct when
/// none did.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// Extra JSON objects printed before the result line (environment,
  /// soak curve, failure notes), one per line, keyed by their "kind".
  std::vector<std::string> Notes;

  void set(const std::string &Name, double Value, const char *Unit,
           uint64_t Samples) {
    Metrics[Name] = Metric{Value, Unit, Samples};
  }
  void fail(uint64_t N, const std::string &Why);
};

/// Command-line options shared by every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs (the smoke check): every metric still gets a value.
  bool Small = false;
  std::string OutDir = ".";
};

//===----------------------------------------------------------------------===//
// Fork-per-pass runner
//===----------------------------------------------------------------------===//

/// Byte buffer a child pass writes its records into.
struct Blob {
  std::string Bytes;
  size_t Pos = 0;

  template <typename T> void put(const T &V) {
    Bytes.append(reinterpret_cast<const char *>(&V), sizeof(T));
  }
  void putString(std::string_view S) {
    put<uint64_t>(S.size());
    Bytes.append(S.data(), S.size());
  }
  template <typename T> T get() {
    T V{};
    if (Pos + sizeof(T) <= Bytes.size())
      std::memcpy(&V, Bytes.data() + Pos, sizeof(T));
    Pos += sizeof(T);
    return V;
  }
  std::string getString() {
    uint64_t N = get<uint64_t>();
    if (Pos > Bytes.size() || N > Bytes.size() - Pos)
      return {};
    std::string S = Bytes.substr(Pos, N);
    Pos += N;
    return S;
  }
  bool ok() const { return Pos <= Bytes.size(); }
};

/// What one forked pass returned.
struct PassOutput {
  bool Ok = false;     ///< child exited 0 and wrote its whole blob
  Blob Data;
  double PeakRssMb = 0; ///< the child's peak resident set
};

/// Runs \p Body in a child forked from the current process, so every
/// pass starts from the parent's expression-interner state (the interner
/// and arena are process-global and never shrink; a second pass in one
/// process would be partly served from nodes interned by the first).
/// The child writes its records into the Blob; the parent reads them,
/// then reaps the child.  The parent must be single-threaded.  With
/// \p Cpu >= 0 the child runs on the Cpu-th CPU it may use (modulo their
/// number), so that passes numbered in turn visit every vCPU.
PassOutput runPass(const std::function<void(Blob &)> &Body, int Cpu = -1);

/// Peak resident set of the calling process, in MiB.
double selfPeakRssMb();
/// Current resident set of the calling process, in MiB.
double selfRssMb();

/// The machine's CPU time stolen by the hypervisor and its total CPU
/// time, in clock ticks since boot (/proc/stat).
struct CpuTicks {
  uint64_t Steal = 0, Total = 0;
};
CpuTicks cpuTicks();
/// Share of the machine's CPU time the hypervisor took between two
/// readings (0 when no tick passed).
inline double stealShare(const CpuTicks &A, const CpuTicks &B) {
  return B.Total > A.Total
             ? static_cast<double>(B.Steal - A.Steal) / (B.Total - A.Total)
             : 0.0;
}

//===----------------------------------------------------------------------===//
// Workload inputs
//===----------------------------------------------------------------------===//

/// A program with an optional goal: the unit of the analysis chain.  The
/// analyzer's W is the machine's task overhead (65 for ROLOG, the
/// analyze_file default the corpus baselines were captured with).
struct ChainProgram {
  std::string Name;
  std::string Source;
  granlog::MachineConfig Machine = granlog::MachineConfig::rolog();
  const granlog::BenchmarkDef *Bench = nullptr;  ///< Table-1 program + goal
  const granlog::GeneratedProgram *Gen = nullptr; ///< generated goal
  int Input = 0;
  bool hasGoal() const { return Bench || Gen; }
  const granlog::Term *goal(granlog::TermArena &A) const;
};

/// Connections (and edit-script clients) of every server run: the 4
/// cores of the machine the benchmark was sized on, and no more.
inline constexpr unsigned Clients = 4;

/// One request of an edit script, as a compact descriptor: program texts
/// are rebuilt from the generator, so a long run stores no sources.
struct Step {
  enum Kind : uint8_t { Update, Explain, Only } K = Update;
  int32_t Base = -1;   ///< generated program index (or Table-1 index)
  int32_t Extra = -1;  ///< appended program index; -1 = none
  bool Table1 = false; ///< Base names a Table-1 program
};

/// Generator indices of the programs edit scripts append; base programs
/// have smaller indices.
inline constexpr int32_t FirstExtraProgram = 1000000;

/// Source texts of generated programs, generated once on first use.
class ProgramPool {
public:
  explicit ProgramPool(uint64_t Seed) : Seed(Seed) {}
  const granlog::GeneratedProgram &get(int32_t Index);
  std::string source(const Step &S);
  std::string onlySpec(const Step &S);
  /// Keeps at most \p Max base programs cached, dropping the lowest
  /// indices first (a base is regenerated if it is asked for again).  A
  /// reference get() returned for a dropped base dangles, so only a user
  /// that copies what it gets may set this.
  void limitBases(size_t Max) { MaxBases = std::max<size_t>(Max, 1); }

private:
  uint64_t Seed;
  size_t MaxBases = SIZE_MAX, Bases = 0;
  std::map<int32_t, granlog::GeneratedProgram> Cache;
};

/// The edit script of one granlogd client (granload style): Update and a
/// read alternate; updates append another generated program's clauses
/// or revert to the base program, and every FreshEvery-th update starts
/// a new base program the session has never seen (a cold update).
class EditScript {
public:
  static constexpr unsigned FreshEvery = 16;
  /// Many, so the mix of appended programs barely moves with the seed.
  static constexpr unsigned ExtrasPerClient = 64;
  explicit EditScript(unsigned Client) : Client(Client) {}
  /// Request \p I of this client's script (I = 0, 1, ...).
  Step at(uint64_t I) const;

private:
  unsigned Client;
};

/// Response digest the direct replay of \p Steps produces, one per step
/// (the same library calls the server makes, without the server).
/// \p Spans, when non-null, receives reader / session spans per step.
struct SpanLog;
std::vector<uint64_t> replayDirect(ProgramPool &Pool,
                                   const std::vector<Step> &Steps,
                                   unsigned Client, SpanLog *Spans,
                                   std::vector<double> *ReusedRatio);

/// Per-request observations of a closed-loop server run.
struct ServerRun {
  std::vector<std::vector<Step>> Steps;      ///< per client, as sent
  std::vector<std::vector<uint64_t>> Digest; ///< per client, per step
  std::vector<std::vector<double>> LatMs;    ///< per client, per step
  /// Per client, per step: seconds from the start of the timed phase to
  /// the response; negative for warm-up requests.
  std::vector<std::vector<double>> DoneAtS;
  /// cpuTicks() at the first response of every whole second of the timed
  /// phase, and when (seconds into the timed phase) it was read: the
  /// window boundaries.
  std::vector<CpuTicks> SecondTicks;
  std::vector<double> SecondAtS;
  uint64_t Sent = 0, NotOk = 0, Dropped = 0, Ok = 0;
  double TimedSeconds = 0;
  double SetupSeconds = 0;
  std::string Error;
  /// (requests so far, expr arena bytes, RSS MiB, peak RSS MiB) every
  /// 1000 requests.
  std::vector<std::array<double, 4>> Soak;
};

/// Starts an in-process AnalysisServer (2 workers, in-memory sessions),
/// drives it closed-loop over Clients AF_UNIX connections from the
/// calling thread: first \p WarmupPerClient requests per client untimed,
/// then until \p Seconds pass (or, when \p MaxPerClient is nonzero, until
/// every client has sent that many).  Scripts come from \p Script.
ServerRun runServer(ProgramPool &Pool,
                    const std::function<Step(unsigned, uint64_t)> &Script,
                    unsigned WarmupPerClient,
                    double Seconds, uint64_t MaxPerClient,
                    const std::string &SocketPath);

/// runServer in a child forked from the caller (see runPass), its
/// observations shipped back.
ServerRun serveInChild(const Options &O, ProgramPool &Pool,
                       const std::function<Step(unsigned, uint64_t)> &Script,
                       unsigned Warmup, double Seconds,
                       uint64_t MaxPerClient);

//===----------------------------------------------------------------------===//
// Traced run: spans kept in memory, written at the end
//===----------------------------------------------------------------------===//

struct Span {
  uint16_t Name = 0;   ///< index into spanNames()
  int32_t Parent = -1; ///< index of the enclosing span; -1 = root
  uint32_t Op = 0;     ///< operation id; spans of one op share it
  uint64_t Start = 0, End = 0;
};

const std::vector<std::string> &spanNames();
uint16_t spanId(std::string_view Name);

struct SpanLog {
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  uint32_t Op = 0;
  void begin(uint16_t Name) {
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Op = Op;
    S.Start = nowNs();
    Open.push_back(static_cast<int32_t>(Spans.size()));
    Spans.push_back(S);
  }
  void end() {
    Spans[Open.back()].End = nowNs();
    Open.pop_back();
  }
};

/// RAII span; a null log records nothing (the untraced path).
class Scope {
public:
  Scope(SpanLog *L, uint16_t Name) : L(L) {
    if (L)
      L->begin(Name);
  }
  ~Scope() {
    if (L)
      L->end();
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog *L;
};

/// Self time of every span: duration minus the part its children cover.
std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans);
/// Writes spans as JSON (name, start, end, parent, op).
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

Result runCorpusCold(const Options &O);
Result runEditServe(const Options &O);
Result runGranularitySim(const Options &O);
/// The traced run of any workload (per-layer metrics).
Result runTraced(const Options &O);

/// Inputs of each workload, shared by its untraced and traced runs.
std::vector<granlog::GeneratedProgram> corpusColdGenerated(const Options &O);
std::vector<ChainProgram> corpusColdPrograms(
    const std::vector<granlog::GeneratedProgram> &Gen);
std::vector<ChainProgram> simExperiments();

/// One granularity-control experiment: the work of corpus/Harness's
/// runBenchmark (analyze, transform, run T0 and T1, simulate both),
/// timed in two halves: the analysis side (load, analyze, report,
/// transform) and the execution side (interpret and simulate).
struct Experiment {
  bool Ok = false; ///< both runs succeeded and T1's answer equals T0's
  std::string Why; ///< why Ok is false
  double T0 = 0, T1 = 0;
  unsigned Tasks0 = 0, Tasks1 = 0;
};
Experiment runExperiment(const ChainProgram &Prog,
                         const granlog::MachineConfig &M, uint64_t *UpdateNs,
                         uint64_t *ReadNs);

/// Geometric mean of T0/T1 over \p Programs on \p Machine, plus a
/// per-program answer check (T1's answer equals T0's).  Every program
/// whose run aborted or whose answers differ is a failed operation in
/// \p R.
double simulatedSpeedup(const std::vector<ChainProgram> &Programs,
                        const granlog::MachineConfig &Machine, Result &R);

} // namespace granbench

#endif // GRANBENCH_BENCH_H
