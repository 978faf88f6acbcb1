//===- perfbench/src/common.cpp - Shared benchmark machinery --------------===//

#include "bench.h"

#include "core/AnalysisSession.h"
#include "core/Transform.h"
#include "corpus/Harness.h"
#include "expr/ExprInterner.h"
#include "interp/Interpreter.h"
#include "program/Program.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "term/TermWriter.h"
#include "term/Unify.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace granlog;

namespace granbench {

double percentile(std::vector<double> &Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  // Nearest rank: the smallest sample with at least Q of them at or below.
  size_t Rank = static_cast<size_t>(std::ceil(Q * Samples.size()));
  return Samples[std::clamp<size_t>(Rank, 1, Samples.size()) - 1];
}

double median(std::vector<double> Samples) {
  return percentile(Samples, 0.5);
}

void Result::fail(uint64_t N, const std::string &Why) {
  Failed += N;
  if (Notes.size() < 64) {
    std::string Escaped;
    for (char C : Why.substr(0, 300))
      Escaped += (C == '"' || C == '\\') ? '\'' : (C == '\n' ? ' ' : C);
    Notes.push_back("{\"kind\": \"failure\", \"ops\": " + std::to_string(N) +
                    ", \"why\": \"" + Escaped + "\"}");
  }
}

//===----------------------------------------------------------------------===//
// Fork-per-pass runner
//===----------------------------------------------------------------------===//

namespace {

/// Pins the calling process to the \p Index-th CPU it may run on, counted
/// modulo their number; a negative index leaves it unpinned.
void pinToCpu(int Index) {
  cpu_set_t Allowed;
  if (Index < 0 || ::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  int Count = CPU_COUNT(&Allowed);
  for (int Cpu = 0, Seen = 0; Count && Cpu != CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed) || Seen++ != Index % Count)
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    ::sched_setaffinity(0, sizeof(One), &One);
    return;
  }
}

} // namespace

PassOutput runPass(const std::function<void(Blob &)> &Body, int Cpu) {
  PassOutput Out;
  int Fds[2];
  if (::pipe(Fds) != 0)
    return Out;
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return Out;
  }
  if (Pid == 0) {
    // A child never outlives the benchmark, even one killed on a timeout.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(Fds[0]);
    pinToCpu(Cpu);
    int Code = 0;
    Blob B;
    try {
      Body(B);
    } catch (...) {
      Code = 3;
    }
    // Length-prefixed so the parent can tell a complete blob from a
    // child that died mid-write.
    uint64_t N = B.Bytes.size();
    std::string Frame(reinterpret_cast<const char *>(&N), sizeof(N));
    Frame += B.Bytes;
    size_t Off = 0;
    while (Off < Frame.size()) {
      ssize_t W = ::write(Fds[1], Frame.data() + Off, Frame.size() - Off);
      if (W < 0 && errno == EINTR)
        continue;
      if (W <= 0) {
        Code = 4;
        break;
      }
      Off += static_cast<size_t>(W);
    }
    ::close(Fds[1]);
    ::_exit(Code);
  }
  ::close(Fds[1]);
  std::string Bytes;
  char Buf[1 << 16];
  while (true) {
    ssize_t N = ::read(Fds[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Bytes.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fds[0]);
  int Status = 0;
  struct rusage Usage {};
  while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  Out.PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  uint64_t N = 0;
  if (Bytes.size() >= sizeof(N))
    std::memcpy(&N, Bytes.data(), sizeof(N));
  Out.Ok = WIFEXITED(Status) && WEXITSTATUS(Status) == 0 &&
           Bytes.size() == sizeof(N) + N;
  if (Out.Ok)
    Out.Data.Bytes = Bytes.substr(sizeof(N));
  return Out;
}

double selfPeakRssMb() {
  struct rusage Usage {};
  ::getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

double selfRssMb() {
  std::ifstream In("/proc/self/statm");
  long Pages = 0, Resident = 0;
  In >> Pages >> Resident;
  return static_cast<double>(Resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuTicks cpuTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu;
  CpuTicks T;
  // user nice system idle iowait irq softirq steal guest guest_nice
  for (int Field = 0; Field != 8 && In; ++Field) {
    uint64_t V = 0;
    In >> V;
    T.Total += V;
    if (Field == 7)
      T.Steal = V;
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

const Term *ChainProgram::goal(TermArena &A) const {
  if (Bench)
    return Bench->BuildGoal(A, Input);
  if (Gen)
    return buildGeneratedGoal(*Gen, A, Input);
  return nullptr;
}

const GeneratedProgram &ProgramPool::get(int32_t Index) {
  auto It = Cache.find(Index);
  if (It != Cache.end())
    return It->second;
  It = Cache.emplace(Index, generateProgram(Seed, static_cast<unsigned>(Index)))
           .first;
  if (Index < FirstExtraProgram && ++Bases > MaxBases) {
    // Bases sort before extras; never drop the one just made.
    auto Old = Cache.begin();
    if (Old == It)
      ++Old;
    Cache.erase(Old);
    --Bases;
  }
  return It->second;
}

std::string ProgramPool::source(const Step &S) {
  if (S.Table1)
    return benchmarkCorpus()[S.Base].Source;
  std::string Text = get(S.Base).Source;
  if (S.Extra >= 0)
    Text += "\n" + get(S.Extra).Source;
  return Text;
}

std::string ProgramPool::onlySpec(const Step &S) {
  const GeneratedProgram &G = get(S.Base);
  return G.EntryPred + "/" + std::to_string(G.EntryArity);
}

Step EditScript::at(uint64_t I) const {
  uint64_t U = I / 2; // update number
  uint64_t Epoch = U / FreshEvery, R = U % FreshEvery;
  Step S;
  S.Base = static_cast<int32_t>(Client + Clients * Epoch);
  // Odd updates append the next of the client's extra programs; the
  // client cycles through all of them every ExtrasPerClient / 8 epochs,
  // so after the first cycle an appended program's SCCs are reused.
  if (R % 2 == 1)
    S.Extra = static_cast<int32_t>(
        FirstExtraProgram + Client * ExtrasPerClient +
        (Epoch * (FreshEvery / 2) + R / 2) % ExtrasPerClient);
  if (I % 2 == 0)
    return S; // Update: a fresh base (R == 0), base + extra, or revert
  S.K = U % 2 == 0 ? Step::Explain : Step::Only;
  return S;
}

std::vector<GeneratedProgram> corpusColdGenerated(const Options &O) {
  // Large enough that the draw's mix of families and depths, and so the
  // per-op latency distribution, barely moves from seed to seed.  The
  // caller checks that all 7 families appear.
  GeneratorConfig C;
  C.Seed = O.Seed;
  C.Count = O.Small ? 40 : 1000;
  return generateCorpus(C);
}

std::vector<ChainProgram> corpusColdPrograms(
    const std::vector<GeneratedProgram> &Gen) {
  std::vector<ChainProgram> Out;
  for (const BenchmarkDef &B : benchmarkCorpus()) {
    ChainProgram P;
    P.Name = B.Name;
    P.Source = B.Source;
    P.Bench = &B;
    P.Input = B.DefaultInput;
    Out.push_back(std::move(P));
  }
  for (const GeneratedProgram &G : Gen) {
    ChainProgram P;
    P.Name = G.Name;
    P.Source = G.Source;
    P.Gen = &G;
    P.Input = G.DefaultInput;
    Out.push_back(std::move(P));
  }
  return Out;
}

std::vector<ChainProgram> simExperiments() {
  std::vector<ChainProgram> Out;
  for (const MachineConfig &M :
       {MachineConfig::rolog(), MachineConfig::andProlog()})
    for (const BenchmarkDef &B : benchmarkCorpus()) {
      ChainProgram P;
      P.Name = B.Name + "@" + M.Name;
      P.Source = B.Source;
      P.Machine = M;
      P.Bench = &B;
      P.Input = B.DefaultInput;
      Out.push_back(std::move(P));
    }
  return Out;
}

//===----------------------------------------------------------------------===//
// One experiment (the work of corpus::runBenchmark, split in two halves)
//===----------------------------------------------------------------------===//

Experiment runExperiment(const ChainProgram &Prog, const MachineConfig &M,
                         uint64_t *UpdateNs, uint64_t *ReadNs) {
  Experiment E;
  uint64_t T0 = nowNs();
  TermArena Arena;
  Diagnostics Diags;
  std::optional<Program> P0 = loadProgram(Prog.Source, Arena, Diags);
  if (!P0) {
    E.Why = Prog.Name + ": load failed: " + Diags.str();
    return E;
  }
  GranularityAnalyzer GA(*P0,
                         AnalyzerOptions{CostMetric::resolutions(),
                                         M.taskOverhead()});
  GA.run();
  std::string Report = GA.report();
  Program P1 = applyGranularityControl(*P0, GA);
  uint64_t T1 = nowNs();

  InterpOptions IO = interpOptionsFor(M);
  std::string Answer[2];
  bool Ok[2] = {false, false};
  SimResult Sim[2];
  InterpCounters Counters[2];
  for (int Side = 0; Side != 2; ++Side) {
    Interpreter I(Side == 0 ? *P0 : P1, Arena, IO);
    const Term *Goal = Prog.goal(Arena);
    Ok[Side] = Goal && I.solve(Goal) && !I.aborted();
    if (Ok[Side])
      Answer[Side] = termText(resolve(Goal, Arena), Arena.symbols());
    Counters[Side] = I.counters();
    if (std::unique_ptr<CostNode> Tree = I.takeTree())
      Sim[Side] = simulate(*Tree, M);
  }
  uint64_t T2 = nowNs();
  if (UpdateNs)
    *UpdateNs = T1 - T0;
  if (ReadNs)
    *ReadNs = T2 - T1;
  E.T0 = Sim[0].ParallelTime;
  E.T1 = Sim[1].ParallelTime;
  E.Tasks0 = Sim[0].TasksSpawned;
  E.Tasks1 = Sim[1].TasksSpawned;
  E.Ok = Ok[0] && Ok[1] && Answer[0] == Answer[1] && E.T1 > 0;
  if (!Ok[0] || !Ok[1])
    E.Why = Prog.Name + ": goal failed or aborted (T0 ok " +
            std::to_string(Ok[0]) + ", T1 ok " + std::to_string(Ok[1]) + ")";
  else if (Answer[0] != Answer[1])
    E.Why = Prog.Name + ": controlled answer " + Answer[1] +
            " differs from uncontrolled " + Answer[0];
  return E;
}

double simulatedSpeedup(const std::vector<ChainProgram> &Programs,
                        const MachineConfig &Machine, Result &R) {
  double LogSum = 0;
  unsigned N = 0;
  for (const ChainProgram &P : Programs) {
    if (!P.hasGoal())
      continue;
    Experiment E = runExperiment(P, Machine, nullptr, nullptr);
    if (!E.Ok) {
      R.fail(1, "simulated speedup on " + Machine.Name + ": " + E.Why);
      continue;
    }
    LogSum += std::log(E.T0 / E.T1);
    ++N;
  }
  return N ? std::exp(LogSum / N) : 0;
}

//===----------------------------------------------------------------------===//
// Direct replay of an edit script (the server's library calls)
//===----------------------------------------------------------------------===//

namespace {

/// The server's Only request: a demand-driven one-shot analysis of the
/// predicate's callee cone, sharing the session's solver cache.
std::string directOnly(AnalysisSession &S, const std::string &Source,
                       const std::string &Spec, bool &Ok) {
  TermArena Arena;
  Diagnostics Diags;
  std::optional<Program> P = loadProgram(Source, Arena, Diags);
  size_t Slash = Spec.rfind('/');
  Ok = false;
  if (!P || Slash == std::string::npos)
    return {};
  Symbol Sym = P->symbols().lookup(Spec.substr(0, Slash));
  Functor Target{Sym, static_cast<unsigned>(std::atoi(Spec.c_str() + Slash + 1))};
  if (!Sym.isValid() || !P->lookup(Target))
    return {};
  const SessionOptions &SO = S.options();
  AnalyzerOptions AO;
  AO.Metric = SO.Metric;
  AO.Overhead = SO.Overhead;
  AO.Jobs = SO.Jobs;
  AO.Cache = &S.solverCache();
  GranularityAnalyzer GA(*P, AO);
  GA.prepare();
  const CallGraph &CG = GA.callGraph();
  for (unsigned Id = 0; Id != CG.numSCCs(); ++Id)
    GA.setSccAction(Id, GranularityAnalyzer::SccAction::Skip);
  for (unsigned Id : CG.reachableSCCs(Target))
    GA.setSccAction(Id, GranularityAnalyzer::SccAction::Analyze);
  GA.run();
  Ok = true;
  return GA.report();
}

} // namespace

std::vector<uint64_t> replayDirect(ProgramPool &Pool,
                                   const std::vector<Step> &Steps,
                                   unsigned Client, SpanLog *Spans,
                                   std::vector<double> *ReusedRatio) {
  static const uint16_t OpSpan = spanId("op");
  static const uint16_t ReaderSpan = spanId("reader");
  static const uint16_t SessionSpan = spanId("core.session_update");
  AnalysisSession Session{SessionOptions()};
  std::vector<uint64_t> Digests;
  Digests.reserve(Steps.size());
  for (size_t I = 0; I != Steps.size(); ++I) {
    const Step &S = Steps[I];
    if (Spans)
      Spans->Op = static_cast<uint32_t>(Client * 1000000 + I);
    Scope Op(Spans, OpSpan);
    switch (S.K) {
    case Step::Update: {
      std::string Source = Pool.source(S);
      TermArena Arena;
      Diagnostics Diags;
      std::optional<Program> P;
      {
        Scope R(Spans, ReaderSpan);
        P = loadProgram(Source, Arena, Diags);
      }
      if (!P || P->predicates().empty()) {
        Digests.push_back(0);
        break;
      }
      const SessionUpdate *U;
      {
        Scope Sess(Spans, SessionSpan);
        U = &Session.update(*P);
      }
      if (ReusedRatio && U->TotalSCCs)
        ReusedRatio->push_back(static_cast<double>(U->ReusedSCCs) /
                               U->TotalSCCs);
      Digests.push_back(digest(U->Report));
      break;
    }
    case Step::Explain:
      Digests.push_back(digest(Session.last().ExplainAll));
      break;
    case Step::Only: {
      bool Ok = false;
      std::string Report =
          directOnly(Session, Pool.get(S.Base).Source, Pool.onlySpec(S), Ok);
      Digests.push_back(Ok ? digest(Report) : 0);
      break;
    }
    }
  }
  return Digests;
}

//===----------------------------------------------------------------------===//
// Closed-loop server client
//===----------------------------------------------------------------------===//

namespace {

bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t W = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      return false;
    Off += static_cast<size_t>(W);
  }
  return true;
}

int connectTo(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  for (int Try = 0; Try != 100; ++Try) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

struct Conn {
  int Fd = -1;
  FrameReader Reader;
  uint64_t Next = 0;       ///< next script index to send
  uint64_t SentAt = 0;
  bool InFlight = false;
  bool HelloPending = false;
};

} // namespace

ServerRun runServer(ProgramPool &Pool,
                    const std::function<Step(unsigned, uint64_t)> &Script,
                    unsigned WarmupPerClient,
                    double Seconds, uint64_t MaxPerClient,
                    const std::string &SocketPath) {
  ServerRun Run;
  Run.Steps.resize(Clients);
  Run.Digest.resize(Clients);
  Run.LatMs.resize(Clients);
  Run.DoneAtS.resize(Clients);
  uint64_t SetupStart = nowNs();

  ServerConfig Config;
  Config.SocketPath = SocketPath;
  Config.Workers = 2;
  AnalysisServer Server(Config);
  if (!Server.start(&Run.Error))
    return Run;

  std::vector<Conn> Conns(Clients);
  for (unsigned C = 0; C != Clients; ++C) {
    Conns[C].Fd = connectTo(SocketPath);
    if (Conns[C].Fd < 0) {
      Run.Error = "cannot connect to " + SocketPath;
      break;
    }
    Request Hello;
    Hello.Kind = Op::Hello;
    Hello.Id = 1;
    Hello.Name = "bench" + std::to_string(C);
    sendAll(Conns[C].Fd, encodeRequest(Hello));
    Conns[C].HelloPending = true;
  }

  bool Timing = false;
  uint64_t Deadline = 0, TimedStart = 0, LastResponse = 0;
  auto Limit = [&](const Conn &C) {
    if (!Timing)
      return C.Next < WarmupPerClient;
    if (MaxPerClient && C.Next >= MaxPerClient)
      return false;
    return nowNs() < Deadline;
  };
  auto SendNext = [&](unsigned Ci) {
    Conn &C = Conns[Ci];
    Step S = Script(Ci, C.Next);
    Request R;
    R.Id = static_cast<uint32_t>(C.Next + 2);
    switch (S.K) {
    case Step::Update:
      R.Kind = Op::Update;
      R.Source = Pool.source(S);
      break;
    case Step::Explain:
      R.Kind = Op::Explain;
      break;
    case Step::Only:
      R.Kind = Op::Only;
      R.Pred = Pool.onlySpec(S);
      R.Source = Pool.get(S.Base).Source;
      break;
    }
    Run.Steps[Ci].push_back(S);
    ++C.Next;
    ++Run.Sent;
    C.InFlight = true;
    C.SentAt = nowNs();
    if (!sendAll(C.Fd, encodeRequest(R))) {
      C.InFlight = false;
      ++Run.NotOk;
      Run.Digest[Ci].push_back(0);
      Run.LatMs[Ci].push_back(0);
      Run.DoneAtS[Ci].push_back(Timing ? (nowNs() - TimedStart) / 1e9 : -1);
    }
  };

  // Phase 0: warm-up (untimed); phase 1: timed.  A phase ends once every
  // connection is idle and none may send more.
  for (int Phase = 0; Phase != 2 && Run.Error.empty(); ++Phase) {
    if (Phase == 1) {
      Run.SetupSeconds = (nowNs() - SetupStart) / 1e9;
      if (Seconds <= 0)
        break;
      Timing = true;
      Run.SecondTicks.push_back(cpuTicks());
      Run.SecondAtS.push_back(0);
      TimedStart = nowNs();
      Deadline = TimedStart + static_cast<uint64_t>(Seconds * 1e9);
    }
    for (unsigned Ci = 0; Ci != Clients; ++Ci)
      if (!Conns[Ci].HelloPending && !Conns[Ci].InFlight && Limit(Conns[Ci]))
        SendNext(Ci);
    while (true) {
      std::vector<pollfd> Pfds;
      std::vector<unsigned> Who;
      for (unsigned Ci = 0; Ci != Clients; ++Ci)
        if (Conns[Ci].InFlight || Conns[Ci].HelloPending) {
          Pfds.push_back({Conns[Ci].Fd, POLLIN, 0});
          Who.push_back(Ci);
        }
      if (Pfds.empty())
        break;
      int N = ::poll(Pfds.data(), Pfds.size(), 10000);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Run.Error = "server stopped answering";
        break;
      }
      for (size_t K = 0; K != Pfds.size(); ++K) {
        if (!(Pfds[K].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        unsigned Ci = Who[K];
        Conn &C = Conns[Ci];
        char Buf[1 << 16];
        ssize_t Got = ::recv(C.Fd, Buf, sizeof(Buf), 0);
        if (Got <= 0) {
          if (Got < 0 && errno == EINTR)
            continue;
          Run.Error = "connection closed by server";
          C.InFlight = C.HelloPending = false;
          continue;
        }
        C.Reader.append(Buf, static_cast<size_t>(Got));
        while (std::optional<std::string> Payload = C.Reader.next()) {
          uint64_t Now = nowNs();
          std::optional<Response> Resp = decodeResponse(*Payload);
          bool Ok = Resp && Resp->St == Status::Ok;
          if (C.HelloPending) {
            C.HelloPending = false;
            if (!Ok)
              Run.Error = "hello refused";
          } else if (C.InFlight) {
            C.InFlight = false;
            LastResponse = Now;
            Run.Digest[Ci].push_back(Ok ? digest(Resp->Body) : 0);
            Run.LatMs[Ci].push_back((Now - C.SentAt) / 1e6);
            Run.DoneAtS[Ci].push_back(Timing ? (Now - TimedStart) / 1e9 : -1);
            if (Timing &&
                Now - TimedStart >= Run.SecondTicks.size() * 1000000000ull) {
              Run.SecondTicks.push_back(cpuTicks());
              Run.SecondAtS.push_back((Now - TimedStart) / 1e9);
            }
            Ok ? ++Run.Ok : ++Run.NotOk;
            uint64_t Done = Run.Ok + Run.NotOk;
            if (Done % 1000 == 0)
              Run.Soak.push_back(
                  {static_cast<double>(Done),
                   static_cast<double>(
                       ExprInterner::global().counters().ArenaBytes),
                   selfRssMb(), selfPeakRssMb()});
          }
          if (Limit(C) && Run.Error.empty())
            SendNext(Ci);
        }
      }
    }
  }
  if (Timing)
    Run.TimedSeconds = (LastResponse > TimedStart ? LastResponse - TimedStart
                                                  : 0) /
                       1e9;
  for (Conn &C : Conns)
    if (C.Fd >= 0)
      ::close(C.Fd);
  Server.requestStop();
  Server.waitForDrain();
  Run.Dropped = Server.counters().Dropped.load();
  ::unlink(SocketPath.c_str());
  return Run;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

const std::vector<std::string> &spanNames() {
  static const std::vector<std::string> Names = {
      "op",
      "reader",
      "program.callgraph",
      "analysis.modes",
      "analysis.determinacy",
      "size.run",
      "cost.run",
      "core.threshold",
      "check.reference",
      "core.transform",
      "interp.solve",
      "runtime.simulate",
      "core.session_update",
  };
  return Names;
}

uint16_t spanId(std::string_view Name) {
  const std::vector<std::string> &Names = spanNames();
  for (size_t I = 0; I != Names.size(); ++I)
    if (Names[I] == Name)
      return static_cast<uint16_t>(I);
  std::fprintf(stderr, "granbench: unknown span %.*s\n",
               static_cast<int>(Name.size()), Name.data());
  std::abort();
}

std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  // Children of one span never overlap (one thread records them), so the
  // covered part of a parent is the sum of its children's durations.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= std::min(Self[S.Parent], S.End - S.Start);
  return Self;
}

bool writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"spans\": [\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %d, \"op\": %u}%s\n",
                 spanNames()[S.Name].c_str(),
                 static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End), S.Parent, S.Op,
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

} // namespace granbench
