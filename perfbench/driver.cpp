//===- perfbench/driver.cpp - End-to-end benchmark driver ------------------===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native half of the end-to-end benchmark (perfbench/run.py is the
/// other half). Every subcommand calls only the library's public
/// interfaces and, when given --trace-out, records its own spans around
/// each call into a layer as Chrome-trace JSON. Raw samples go to stdout
/// as one JSON object; run.py computes the statistics.
///
/// \code
///   perfbench_driver gen --workload W --seed N --dir D [--trace-out F]
///   perfbench_driver monitor --input F --ckpt-dir D --seconds S
///       --gadget-starts N,... [--trace-out F]
///   perfbench_driver oneshot --inputs A,B,C [--verify 1] [--trace-out F]
///   perfbench_driver loadgen --port P --tenants NAME:LEVEL:WINDOW:CONN:PATH,...
///       [--suffix S] [--trace-out F]
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/check_rc.h"
#include "checker/checker.h"
#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/read_consistency.h"
#include "checker/violation_sink.h"
#include "io/stream_parser.h"
#include "io/text_format.h"
#include "sim/anomaly_injector.h"
#include "support/serialize.h"
#include "support/socket.h"
#include "workload/generator.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace awdit;

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide time origin: every timestamp the driver reports is seconds
/// (or trace microseconds) since this point.
const Clock::time_point Origin = Clock::now();

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(T - Origin).count();
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", Msg.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Span recording
//===----------------------------------------------------------------------===//

/// Records spans (name, start, end, id, parent) in memory while enabled and
/// writes them as Chrome-trace JSON at the end. Disabled, it reads no clock.
class Trace {
public:
  explicit Trace(std::string Path) : Path(std::move(Path)) {}

  bool on() const { return !Path.empty(); }

  /// Opens a span at \p At under the innermost open span.
  size_t open(const char *Name, Clock::time_point At) {
    Events.push_back({Name, At, At, Events.size() + 1,
                      Stack.empty() ? 0 : Events[Stack.back()].Id, 1});
    Stack.push_back(Events.size() - 1);
    return Events.size() - 1;
  }

  void close(size_t Index, Clock::time_point At) {
    Events[Index].End = At;
    if (!Stack.empty() && Stack.back() == Index)
      Stack.pop_back();
  }

  /// Records a finished span under the innermost open span.
  void record(const char *Name, Clock::time_point Start,
              Clock::time_point End, int Tid = 1) {
    if (!on())
      return;
    Events.push_back({Name, Start, End, Events.size() + 1,
                      Stack.empty() ? 0 : Events[Stack.back()].Id, Tid});
  }

  /// RAII span: reads the clock only when tracing.
  class Scope {
  public:
    Scope(Trace &T, const char *Name) : T(T) {
      if (T.on())
        Index = T.open(Name, Clock::now());
    }
    ~Scope() {
      if (T.on())
        T.close(Index, Clock::now());
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Trace &T;
    size_t Index = 0;
  };

  void write() const {
    if (!on())
      return;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      die("cannot write trace " + Path);
    std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t I = 0; I < Events.size(); ++I) {
      const Event &E = Events[I];
      // steady_clock is CLOCK_MONOTONIC: one time base for every process.
      double Ts = std::chrono::duration<double, std::micro>(
                      E.Start.time_since_epoch())
                      .count();
      double Dur = std::chrono::duration<double, std::micro>(E.End - E.Start)
                       .count();
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"id\":%zu,\"parent\":%zu}}",
                   I ? "," : "", E.Name, Ts, Dur, E.Tid, E.Id, E.Parent);
    }
    std::fprintf(F, "\n]}\n");
    std::fclose(F);
  }

private:
  struct Event {
    const char *Name;
    Clock::time_point Start, End;
    size_t Id, Parent;
    int Tid;
  };
  std::string Path;
  std::vector<Event> Events;
  std::vector<size_t> Stack;
};

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// Parses `--key value` pairs.
std::map<std::string, std::string> parseArgs(int Argc, char **Argv,
                                             int First) {
  std::map<std::string, std::string> Args;
  for (int I = First; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0 || I + 1 >= Argc)
      die("bad argument '" + Key + "'");
    Args[Key.substr(2)] = Argv[++I];
  }
  return Args;
}

std::string need(const std::map<std::string, std::string> &Args,
                 const std::string &Key) {
  auto It = Args.find(Key);
  if (It == Args.end())
    die("missing --" + Key);
  return It->second;
}

std::string getOr(const std::map<std::string, std::string> &Args,
                  const std::string &Key, const std::string &Def) {
  auto It = Args.find(Key);
  return It == Args.end() ? Def : It->second;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

template <typename T> std::string jsonList(const std::vector<T> &Values) {
  std::string Out = "[";
  for (size_t I = 0; I < Values.size(); ++I) {
    if (I)
      Out += ',';
    if constexpr (std::is_integral_v<T>) {
      Out += std::to_string(Values[I]);
    } else {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.9f", static_cast<double>(Values[I]));
      Out += Buf;
    }
  }
  return Out + "]";
}

/// Peak resident set size of this process in KiB (VmHWM).
uint64_t peakRssKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  return 0;
}

std::vector<std::string> splitComma(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream In(S);
  std::string Part;
  while (std::getline(In, Part, ','))
    if (!Part.empty())
      Out.push_back(Part);
  return Out;
}

//===----------------------------------------------------------------------===//
// gen: seeded inputs
//===----------------------------------------------------------------------===//

struct InputSpec {
  std::string Name;
  GenerateParams Params;
  std::vector<AnomalyKind> Inject;
  /// How a serve tenant is checked and which connection carries it.
  std::string Level = "cc";
  size_t Window = 0;
  std::string Conn;
};

InputSpec input(std::string Name, Benchmark B, size_t Sessions, size_t Txns,
                ConsistencyMode Mode, uint64_t Seed) {
  InputSpec I;
  I.Name = std::move(Name);
  I.Params.Bench = B;
  I.Params.Sessions = Sessions;
  I.Params.Txns = Txns;
  I.Params.Mode = Mode;
  I.Params.Seed = Seed;
  return I;
}

std::vector<InputSpec> workloadInputs(const std::string &Workload,
                                      uint64_t Seed) {
  const uint64_t S = Seed * 1000;
  std::vector<InputSpec> Out;
  if (Workload == "monitor-cc-w16k") {
    Out.push_back(input("stream", Benchmark::CTwitter, 50, 44000,
                        ConsistencyMode::Causal, S + 1));
    // Appended at session ends, so inside the last window. (A causality
    // cycle would mask the second: CC stops at a cyclic so ∪ wr.)
    Out.back().Inject = {AnomalyKind::CausalViolation,
                         AnomalyKind::FracturedRead};
    Out.back().Window = 16384;
  } else if (Workload == "oneshot-mixed") {
    Out.push_back(input("ctwitter-causal", Benchmark::CTwitter, 50, 100000,
                        ConsistencyMode::Causal, S + 1));
    Out.push_back(input("tpcc-causal", Benchmark::Tpcc, 10, 25000,
                        ConsistencyMode::Causal, S + 2));
    Out.push_back(input("ctwitter-rc", Benchmark::CTwitter, 50, 100000,
                        ConsistencyMode::ReadCommitted, S + 3));
  } else if (Workload == "serve-tenants") {
    const Benchmark Benches[] = {Benchmark::CTwitter, Benchmark::Tpcc,
                                 Benchmark::Rubis, Benchmark::Random};
    const char *Levels[] = {"rc", "ra", "cc"};
    for (size_t T = 0; T < 12; ++T) {
      Out.push_back(input("cold" + std::to_string(T), Benches[T % 4], 8, 5000,
                          ConsistencyMode::Causal, S + 10 + T));
      Out.back().Level = Levels[T % 3];
      Out.back().Window = 4096;
      Out.back().Conn = "mux";
    }
    // One tenant carries an anomaly every level rejects.
    Out[5].Inject = {AnomalyKind::CausalityCycle};
    Out.push_back(input("hot", Benchmark::CTwitter, 50, 24000,
                        ConsistencyMode::Causal, S + 2));
    Out.back().Window = 4096;
    Out.back().Conn = "hot";
  } else {
    die("unknown workload '" + Workload + "'");
  }
  return Out;
}

int cmdGen(const std::map<std::string, std::string> &Args) {
  std::string Workload = need(Args, "workload");
  uint64_t Seed = std::stoull(need(Args, "seed"));
  std::string Dir = need(Args, "dir");
  Trace T(getOr(Args, "trace-out", ""));
  std::filesystem::create_directories(Dir);

  std::string Files;
  double GenerateMs = 0;
  for (const InputSpec &Spec : workloadInputs(Workload, Seed)) {
    auto Start = Clock::now();
    Trace::Scope Span(T, "workload.generate");
    History H = generateHistory(Spec.Params);
    // Each gadget's transactions are appended after the previous ones.
    std::vector<size_t> GadgetStarts;
    for (size_t K = 0; K < Spec.Inject.size(); ++K) {
      GadgetStarts.push_back(H.numTxns());
      std::string Err;
      std::optional<History> Mutated =
          injectAnomaly(H, Spec.Inject[K], Spec.Params.Seed + K, &Err);
      if (!Mutated)
        die("inject into " + Spec.Name + ": " + Err);
      H = std::move(*Mutated);
    }
    std::string Text = writeTextHistory(H);
    std::string Path = Dir + "/" + Spec.Name + ".txt";
    std::ofstream Out(Path, std::ios::binary);
    Out << Text;
    Out.close();
    if (!Out)
      die("cannot write " + Path);
    double Ms = msBetween(Start, Clock::now());
    GenerateMs += Ms;

    std::string Injected;
    for (AnomalyKind K : Spec.Inject)
      Injected += std::string(Injected.empty() ? "" : ",") + "\"" +
                  anomalyKindName(K) + "\"";
    char Counts[256];
    std::snprintf(Counts, sizeof(Counts),
                  "\"window\":%zu,\"txns\":%zu,\"committed\":%zu,"
                  "\"bytes\":%zu,\"generate_ms\":%.3f",
                  Spec.Window, H.numTxns(), H.numCommitted(), Text.size(), Ms);
    Files += std::string(Files.empty() ? "" : ",") + "{\"name\":\"" +
             Spec.Name + "\",\"path\":\"" + jsonEscape(Path) +
             "\",\"bench\":\"" + benchmarkName(Spec.Params.Bench) +
             "\",\"level\":\"" + Spec.Level + "\",\"conn\":\"" + Spec.Conn +
             "\"," + Counts + ",\"inject\":[" + Injected +
             "],\"gadget_starts\":" + jsonList(GadgetStarts) + "}";
  }
  std::string Manifest = "{\"workload\":\"" + Workload +
                         "\",\"seed\":" + std::to_string(Seed) +
                         ",\"files\":[" + Files + "]}";
  std::ofstream(Dir + "/manifest.json") << Manifest << "\n";
  T.write();
  std::printf("{\"generate_ms\":%.3f,\"manifest\":\"%s\"}\n", GenerateMs,
              jsonEscape(Dir + "/manifest.json").c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// monitor: the windowed CC monitor, driven inline
//===----------------------------------------------------------------------===//

/// One full pass over the stream with a fresh Monitor.
struct StreamResult {
  double WallS = 0;
  uint64_t Committed = 0;
  uint64_t Lines = 0;
  uint64_t Passes = 0;
  /// Apply-call time of every evicting pass (its checkpoint excluded).
  std::vector<double> EvictingPassMs;
  std::vector<double> CkptMs;
  uint64_t CkptBytes = 0;
  double FinalizeMs = 0;
  uint64_t EvictedTxns = 0;
  uint64_t Compactions = 0;
  /// Reported violations: kind name -> count, how many involve each
  /// injected gadget, and how many involve a transaction outside them.
  std::map<std::string, uint64_t> Kinds;
  std::vector<uint64_t> PerGadget;
  uint64_t ViolationsBelowBase = 0;
  bool Consistent = true;
};

/// \p GadgetStarts holds the first transaction id of each injected gadget,
/// ascending; a gadget runs to the next one's start, the last to the end.
StreamResult runMonitorStream(const std::string &Text,
                              const std::string &CkptDir,
                              const std::vector<uint64_t> &GadgetStarts,
                              Trace &T) {
  StreamResult R;
  R.PerGadget.assign(GadgetStarts.size(), 0);
  CallbackSink Sink([&](const Violation &V, const std::string &) {
    ++R.Kinds[violationKindName(V.Kind)];
    std::vector<bool> Hit(GadgetStarts.size(), false);
    bool Below = false;
    auto Involve = [&](TxnId Id) {
      auto It = std::upper_bound(GadgetStarts.begin(), GadgetStarts.end(),
                                 uint64_t(Id));
      if (It == GadgetStarts.begin())
        Below = true;
      else
        Hit[size_t(It - GadgetStarts.begin()) - 1] = true;
    };
    if (V.T != NoTxn)
      Involve(V.T);
    for (const WitnessEdge &E : V.Cycle) {
      Involve(E.From);
      Involve(E.To);
    }
    R.ViolationsBelowBase += Below;
    for (size_t K = 0; K < Hit.size(); ++K)
      R.PerGadget[K] += Hit[K];
  });
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.MaxWitnesses = 4;
  Options.CheckIntervalTxns = 256;
  Options.WindowTxns = 16384;
  const uint64_t CkptInterval = 16;

  std::filesystem::remove_all(CkptDir);
  StoreCheckpointer Ckpt;
  std::string Err;
  if (!Ckpt.open(CkptDir, &Err))
    die("checkpoint store: " + Err);

  Monitor M(Options, &Sink);
  std::unique_ptr<StreamMachine> Machine = makeStreamMachine("native", M);

  const auto Start = Clock::now();
  size_t Root = T.on() ? T.open("monitor.stream", Start) : 0;
  std::vector<LineEvent> Batch;
  std::vector<size_t> Ends;
  const size_t BatchLines = 512;
  size_t Pos = 0;
  uint64_t LastCkptFlush = 0, Compactions = 0;
  while (Pos < Text.size()) {
    Batch.clear();
    Ends.clear();
    {
      Trace::Scope Span(T, "io.decode");
      while (Batch.size() < BatchLines && Pos < Text.size()) {
        size_t Nl = Text.find('\n', Pos);
        if (Nl == std::string::npos)
          Nl = Text.size();
        std::string_view Line(Text.data() + Pos, Nl - Pos);
        if (!Line.empty() && Line.back() == '\r')
          Line.remove_suffix(1);
        Batch.push_back(decodeNativeLine(Line));
        Pos = std::min(Nl + 1, Text.size());
        Ends.push_back(Pos);
      }
    }
    Trace::Scope Span(T, "monitor.apply");
    for (size_t I = 0; I < Batch.size(); ++I) {
      ++R.Lines;
      if (Batch[I].Kind != LineEvent::Type::Commit) {
        if (!Machine->apply(Batch[I], &Err))
          die("line " + std::to_string(R.Lines) + ": " + Err);
        continue;
      }
      uint64_t Flushes = M.flushCount();
      auto A = Clock::now();
      if (!Machine->apply(Batch[I], &Err))
        die("line " + std::to_string(R.Lines) + ": " + Err);
      if (M.flushCount() == Flushes)
        continue;
      auto B = Clock::now();
      T.record("monitor.pass", A, B);
      ++R.Passes;
      const double Ms = msBetween(A, B);
      // The CLI's epoch-barrier hook: a store checkpoint every 16 passes.
      if (M.flushCount() - LastCkptFlush >= CkptInterval) {
        CheckpointMeta Meta;
        Meta.Format = "native";
        Meta.Options = Options;
        Meta.StreamOffset = Ends[I];
        Meta.LineNo = R.Lines;
        Meta.CommittedTxns = Machine->committedTxns();
        Meta.Flushes = M.flushCount();
        auto C0 = Clock::now();
        std::string MachineState;
        ByteWriter W(MachineState);
        Machine->saveState(W);
        if (!Ckpt.write(M, MachineState, Meta, &Err))
          die("checkpoint: " + Err);
        auto C1 = Clock::now();
        T.record("store.ckpt_write", C0, C1);
        R.CkptMs.push_back(msBetween(C0, C1));
        LastCkptFlush = M.flushCount();
      }
      uint64_t Now = M.stats().Compactions;
      if (Now != Compactions)
        R.EvictingPassMs.push_back(Ms);
      Compactions = Now;
    }
  }
  {
    Trace::Scope Span(T, "monitor.apply");
    if (!Machine->atEnd(&Err))
      die("end of stream: " + Err);
  }
  CheckReport Report;
  {
    auto F0 = Clock::now();
    Trace::Scope Span(T, "monitor.finalize");
    Report = M.finalize();
    R.FinalizeMs = msBetween(F0, Clock::now());
  }
  const auto End = Clock::now();
  if (T.on())
    T.close(Root, End);
  R.WallS = std::chrono::duration<double>(End - Start).count();
  const MonitorStats &S = M.stats();
  R.Committed = S.CommittedTxns;
  R.EvictedTxns = S.EvictedTxns;
  R.Compactions = S.Compactions;
  R.CkptBytes = Ckpt.bytesAppended();
  R.Consistent = Report.Consistent;
  return R;
}

int cmdMonitor(const std::map<std::string, std::string> &Args) {
  std::string Text = readFile(need(Args, "input"));
  std::string CkptDir = need(Args, "ckpt-dir");
  double Seconds = std::stod(need(Args, "seconds"));
  std::vector<uint64_t> GadgetStarts;
  for (const std::string &S : splitComma(need(Args, "gadget-starts")))
    GadgetStarts.push_back(std::stoull(S));
  if (GadgetStarts.empty() || !std::is_sorted(GadgetStarts.begin(),
                                              GadgetStarts.end()))
    die("--gadget-starts needs ascending transaction ids");
  Trace T(getOr(Args, "trace-out", ""));

  // Whole streams until the budget is spent.
  std::vector<StreamResult> Runs;
  double Spent = 0;
  do {
    Runs.push_back(runMonitorStream(Text, CkptDir, GadgetStarts, T));
    Spent += Runs.back().WallS;
  } while (Spent < Seconds);
  uint64_t PeakKb = peakRssKb();
  std::filesystem::remove_all(CkptDir);
  T.write();

  std::string Streams;
  for (const StreamResult &R : Runs) {
    std::string Kinds;
    for (const auto &[Name, Count] : R.Kinds)
      Kinds += std::string(Kinds.empty() ? "" : ",") + "\"" + Name +
               "\":" + std::to_string(Count);
    char Buf[768];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"wall_s\":%.6f,\"committed\":%llu,\"lines\":%llu,"
        "\"passes\":%llu,\"finalize_ms\":%.3f,\"evicted_txns\":%llu,"
        "\"compactions\":%llu,\"ckpt_bytes\":%llu,\"consistent\":%s,"
        "\"violations_below_base\":%llu,",
        R.WallS, (unsigned long long)R.Committed,
        (unsigned long long)R.Lines, (unsigned long long)R.Passes,
        R.FinalizeMs, (unsigned long long)R.EvictedTxns,
        (unsigned long long)R.Compactions, (unsigned long long)R.CkptBytes,
        R.Consistent ? "true" : "false",
        (unsigned long long)R.ViolationsBelowBase);
    Streams += std::string(Streams.empty() ? "" : ",") + Buf +
               "\"kinds\":{" + Kinds + "},\"per_gadget\":" +
               jsonList(R.PerGadget) + ",\"evicting_pass_ms\":" +
               jsonList(R.EvictingPassMs) +
               ",\"ckpt_ms\":" + jsonList(R.CkptMs) + "}";
  }
  std::printf("{\"peak_rss_kb\":%llu,\"streams\":[%s]}\n",
              (unsigned long long)PeakKb, Streams.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// oneshot: load + checkIsolation at RC, RA and CC
//===----------------------------------------------------------------------===//

const IsolationLevel Levels[] = {IsolationLevel::ReadCommitted,
                                 IsolationLevel::ReadAtomic,
                                 IsolationLevel::CausalConsistency};
const char *const LevelNames[] = {"rc", "ra", "cc"};

/// The part of a report the output check compares.
struct Verdict {
  bool Consistent = false;
  size_t Violations = 0;
  std::map<std::string, size_t> Kinds;

  bool operator==(const Verdict &O) const {
    return Consistent == O.Consistent && Violations == O.Violations &&
           Kinds == O.Kinds;
  }
};

Verdict verdictOf(bool Consistent, const std::vector<Violation> &Vs) {
  Verdict V;
  V.Consistent = Consistent;
  V.Violations = Vs.size();
  for (const Violation &X : Vs)
    ++V.Kinds[violationKindName(X.Kind)];
  return V;
}

/// The classic sequential Alg. 1-3 functions.
Verdict classicVerdict(const History &H, IsolationLevel L) {
  std::vector<Violation> Out;
  bool Ok = L == IsolationLevel::ReadCommitted ? checkRc(H, Out, 16)
            : L == IsolationLevel::ReadAtomic  ? checkRa(H, Out, 16)
                                               : checkCc(H, Out, 16);
  return verdictOf(Ok, Out);
}

std::string verdictJson(const Verdict &V) {
  std::string Kinds;
  for (const auto &[Name, Count] : V.Kinds)
    Kinds += std::string(Kinds.empty() ? "" : ",") + "\"" + Name +
             "\":" + std::to_string(Count);
  return std::string("{\"consistent\":") +
         (V.Consistent ? "true" : "false") +
         ",\"violations\":" + std::to_string(V.Violations) + ",\"kinds\":{" +
         Kinds + "}}";
}

int cmdOneshot(const std::map<std::string, std::string> &Args) {
  std::vector<std::string> Paths = splitComma(need(Args, "inputs"));
  bool Verify = getOr(Args, "verify", "0") == "1";
  Trace T(getOr(Args, "trace-out", ""));
  std::vector<std::string> Texts;
  for (const std::string &P : Paths)
    Texts.push_back(readFile(P));

  // One round per process: like `awdit check`, every round starts from a
  // fresh allocator (a second round in one process skips the first-touch
  // page faults and ran up to 2x faster).
  static const char *const CheckSpans[] = {"checker.rc", "checker.ra",
                                           "checker.cc"};
  std::vector<double> LoadMs, CheckMs;
  uint64_t PairTxns = 0;
  std::vector<std::vector<Verdict>> Verdicts(Texts.size());
  for (size_t F = 0; F < Texts.size(); ++F) {
    auto L0 = Clock::now();
    std::optional<History> H;
    {
      Trace::Scope Span(T, "io.load");
      std::string Err;
      H = parseTextHistory(Texts[F], &Err);
      if (!H)
        die(Paths[F] + ": " + Err);
    }
    LoadMs.push_back(msBetween(L0, Clock::now()));
    for (size_t L = 0; L < 3; ++L) {
      auto C0 = Clock::now();
      CheckReport R;
      {
        Trace::Scope Span(T, CheckSpans[L]);
        R = checkIsolation(*H, Levels[L]);
      }
      CheckMs.push_back(msBetween(C0, Clock::now()));
      PairTxns += H->numTxns();
      Verdicts[F].push_back(verdictOf(R.Consistent, R.Violations));
    }
  }
  uint64_t PeakKb = peakRssKb();
  if (!Verify) {
    T.write();
    std::printf("{\"peak_rss_kb\":%llu,\"pair_txns\":%llu,\"load_ms\":%s,"
                "\"check_ms\":%s,\"checks\":[]}\n",
                (unsigned long long)PeakKb, (unsigned long long)PairTxns,
                jsonList(LoadMs).c_str(), jsonList(CheckMs).c_str());
    return 0;
  }

  // Untimed, when asked: the traced run's extra layer probes, then the
  // output check against the classic functions.
  static const char *const SeqSpans[] = {"checker.rc_seq", "checker.ra_seq",
                                         "checker.cc_seq"};
  std::vector<History> Hs;
  for (const std::string &Text : Texts)
    Hs.push_back(std::move(*parseTextHistory(Text)));
  if (T.on()) {
    for (const History &H : Hs) {
      {
        Trace::Scope Span(T, "checker.read_check");
        std::vector<Violation> Out;
        checkReadConsistency(H, Out);
      }
      CheckOptions Seq;
      Seq.Threads = 1;
      for (size_t L = 0; L < 3; ++L) {
        Trace::Scope Span(T, SeqSpans[L]);
        checkIsolation(H, Levels[L], Seq);
      }
    }
  }
  // Every (history, level) pair at once: the classic functions are
  // sequential, and this part is not timed.
  std::vector<Verdict> Classic(Hs.size() * 3);
  {
    std::vector<std::jthread> Workers;
    for (size_t I = 0; I < Classic.size(); ++I)
      Workers.emplace_back(
          [&, I] { Classic[I] = classicVerdict(Hs[I / 3], Levels[I % 3]); });
  }
  std::string Checks;
  for (size_t I = 0; I < Classic.size(); ++I) {
    const Verdict &Got = Verdicts[I / 3][I % 3];
    bool Match = Classic[I] == Got;
    Checks += std::string(Checks.empty() ? "" : ",") + "{\"input\":\"" +
              jsonEscape(Paths[I / 3]) + "\",\"level\":\"" +
              LevelNames[I % 3] +
              "\",\"txns\":" + std::to_string(Hs[I / 3].numTxns()) +
              ",\"match\":" + (Match ? "true" : "false") +
              ",\"got\":" + verdictJson(Got) +
              ",\"classic\":" + verdictJson(Classic[I]) + "}";
  }
  T.write();
  std::printf("{\"peak_rss_kb\":%llu,\"pair_txns\":%llu,\"load_ms\":%s,"
              "\"check_ms\":%s,\"checks\":[%s]}\n",
              (unsigned long long)PeakKb, (unsigned long long)PairTxns,
              jsonList(LoadMs).c_str(), jsonList(CheckMs).c_str(),
              Checks.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// loadgen: the open-loop serve client
//===----------------------------------------------------------------------===//

/// Phase 1: the fixed reference rate (aggregate committed transactions
/// offered per second, below saturation on a 4-core host), its length, and
/// its slot: every slot sends the data due plus one STATS probe per tenant.
constexpr double Phase1Rate = 4000;
constexpr double Phase1S = 1.0;
constexpr double SlotS = 0.050;
/// How long a HELLO or phase 2 may take before the run gives up on it.
constexpr double TimeoutS = 120;

struct Probe {
  double Due = 0;
  /// The tenant's data bytes queued before the probe: acknowledged once
  /// its reply arrives (replies are served in stream order).
  uint64_t AckBytes = 0;
};

struct Tenant {
  std::string Name, Level, Text;
  size_t Window = 0;
  size_t ConnIndex = 0;
  /// Byte offset just past each transaction's closing line.
  std::vector<size_t> TxnEnds;
  size_t QueuedTxns = 0;
  size_t Phase1Txns = 0;
  double Rate = 0;
  uint64_t QueuedBytes = 0, AckedBytes = 0;
  double HelloMs = 0;
  std::vector<Probe> Probes;
  std::vector<double> Replies;
  double EndSent = -1, FinalAt = -1;
  std::string Final;
  uint64_t Violations = 0;
  bool Bye = false;
};

struct Conn {
  Socket Sock;
  bool Mux = false;
  std::string Out;
  size_t OutOff = 0;
  /// Bytes queued / written over the connection's life.
  uint64_t Queued = 0, Written = 0;
  std::string In;
  std::string Current;
  bool Open = true;
  /// ENDs awaiting their last byte's write: (end offset, tenant).
  std::vector<std::pair<uint64_t, size_t>> Pending;
  size_t PendingHead = 0;
  std::vector<size_t> Tenants;
};

class LoadGen {
public:
  LoadGen(std::vector<Tenant> Ts, std::vector<Conn> &Cs)
      : Tenants(std::move(Ts)), Conns(Cs) {}

  std::vector<Tenant> Tenants;
  std::vector<Conn> &Conns;
  std::vector<std::string> Errors;
  std::vector<std::pair<double, double>> Backlog;
  uint64_t Unexpected = 0;

  double now() const { return secondsSince(Clock::now()); }

  void queue(Conn &C, std::string_view Bytes) {
    C.Out.append(Bytes);
    C.Queued += Bytes.size();
  }

  /// Queues a data line range for tenant \p T (mux-framed by switching).
  void queueData(Tenant &T, size_t FromTxn, size_t ToTxn) {
    Conn &C = Conns[T.ConnIndex];
    if (C.Mux && C.Current != T.Name) {
      queue(C, "@" + T.Name + "\n");
      C.Current = T.Name;
    }
    size_t From = FromTxn ? T.TxnEnds[FromTxn - 1] : 0;
    size_t To = T.TxnEnds[ToTxn - 1];
    queue(C, std::string_view(T.Text).substr(From, To - From));
    T.QueuedBytes += To - From;
    T.QueuedTxns = ToTxn;
  }

  void queueVerb(Tenant &T, const char *Verb) {
    Conn &C = Conns[T.ConnIndex];
    if (C.Mux) {
      queue(C, "@" + T.Name + " " + Verb + "\n");
      C.Current = T.Name;
    } else {
      queue(C, std::string(Verb) + "\n");
    }
  }

  void queueProbe(size_t TI, double Due) {
    Tenant &T = Tenants[TI];
    queueVerb(T, "STATS");
    T.Probes.push_back({Due, T.QueuedBytes});
  }

  void queueEnd(size_t TI) {
    Tenant &T = Tenants[TI];
    queueVerb(T, "END");
    Conn &C = Conns[T.ConnIndex];
    C.Pending.emplace_back(C.Queued, TI);
  }

  /// Writes what the socket takes; stamps ENDs whose last byte left.
  void pump(Conn &C) {
    while (C.Open && C.OutOff < C.Out.size()) {
      long N = C.Sock.sendSome(std::string_view(C.Out).substr(C.OutOff));
      if (N < 0) {
        Errors.push_back("send failed");
        C.Open = false;
        break;
      }
      if (N == 0)
        break;
      C.OutOff += size_t(N);
      C.Written += uint64_t(N);
    }
    if (C.OutOff == C.Out.size()) {
      C.Out.clear();
      C.OutOff = 0;
    } else if (C.OutOff > (1u << 20)) {
      C.Out.erase(0, C.OutOff);
      C.OutOff = 0;
    }
    double Now = now();
    while (C.PendingHead < C.Pending.size() &&
           C.Pending[C.PendingHead].first <= C.Written)
      Tenants[C.Pending[C.PendingHead++].second].EndSent = Now;
  }

  Tenant *tenantNamed(std::string_view Name) {
    for (Tenant &T : Tenants)
      if (T.Name == Name)
        return &T;
    return nullptr;
  }

  /// Handles one reply line.
  void onLine(Conn &C, std::string_view Line, double Now) {
    Tenant *T = nullptr;
    if (C.Mux) {
      if (Line.empty() || Line[0] != '@') {
        Errors.push_back(std::string(Line));
        return;
      }
      size_t Sp = Line.find(' ');
      T = tenantNamed(Line.substr(1, Sp == std::string_view::npos
                                         ? std::string_view::npos
                                         : Sp - 1));
      Line = Sp == std::string_view::npos ? std::string_view()
                                          : Line.substr(Sp + 1);
    } else {
      T = &Tenants[C.Tenants.front()];
    }
    if (!T) {
      ++Unexpected;
      return;
    }
    if (Line.rfind("STATS ", 0) == 0) {
      T->Replies.push_back(Now);
      size_t K = T->Replies.size() - 1;
      if (K < T->Probes.size())
        T->AckedBytes = T->Probes[K].AckBytes;
      double Sum = 0;
      for (const Tenant &X : Tenants)
        Sum += double(X.QueuedBytes - X.AckedBytes);
      Backlog.emplace_back(Now, Sum);
    } else if (Line.rfind("VIOLATION ", 0) == 0) {
      ++T->Violations;
    } else if (Line.rfind("FINAL ", 0) == 0) {
      T->FinalAt = Now;
      T->Final = std::string(Line.substr(6));
    } else if (Line == "BYE") {
      T->Bye = true;
    } else if (Line.rfind("OK ", 0) == 0) {
      HelloReplies.push_back(Now);
    } else {
      Errors.push_back(T->Name + ": " + std::string(Line));
    }
  }

  /// Reads what is available on \p C and dispatches whole lines.
  void drain(Conn &C) {
    char Buf[1 << 16];
    long N = C.Sock.readSome(Buf, sizeof(Buf));
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    if (N <= 0) {
      C.Open = false;
      return;
    }
    C.In.append(Buf, size_t(N));
    double Now = now();
    size_t Start = 0, Nl;
    while ((Nl = C.In.find('\n', Start)) != std::string::npos) {
      onLine(C, std::string_view(C.In).substr(Start, Nl - Start), Now);
      Start = Nl + 1;
    }
    C.In.erase(0, Start);
  }

  /// One poll round over every open connection, at most \p TimeoutMs.
  void step(int TimeoutMs) {
    std::vector<pollfd> Fds;
    std::vector<size_t> Which;
    for (size_t I = 0; I < Conns.size(); ++I) {
      Conn &C = Conns[I];
      if (!C.Open)
        continue;
      pump(C);
      short Events = POLLIN;
      if (C.OutOff < C.Out.size())
        Events |= POLLOUT;
      Fds.push_back({C.Sock.fd(), Events, 0});
      Which.push_back(I);
    }
    if (Fds.empty())
      return;
    int N = ::poll(Fds.data(), Fds.size(), TimeoutMs);
    if (N <= 0)
      return;
    for (size_t K = 0; K < Fds.size(); ++K) {
      Conn &C = Conns[Which[K]];
      if (Fds[K].revents & (POLLIN | POLLHUP | POLLERR))
        drain(C);
      if (C.Open && (Fds[K].revents & POLLOUT))
        pump(C);
    }
  }

  std::vector<double> HelloReplies;
  double LagMax = 0;
};

int cmdLoadgen(const std::map<std::string, std::string> &Args) {
  uint16_t Port = static_cast<uint16_t>(std::stoul(need(Args, "port")));
  std::string Suffix = getOr(Args, "suffix", "");
  Trace Tr(getOr(Args, "trace-out", ""));

  // The manifest is parsed by run.py; it hands the tenants over as
  // name:level:window:conn:path entries.
  std::vector<Tenant> Ts;
  for (const std::string &Spec : splitComma(need(Args, "tenants"))) {
    std::vector<std::string> F;
    std::stringstream In(Spec);
    std::string Part;
    while (std::getline(In, Part, ':'))
      F.push_back(Part);
    if (F.size() != 5)
      die("bad tenant spec '" + Spec + "'");
    Tenant T;
    T.Name = F[0] + Suffix;
    T.Level = F[1];
    T.Window = std::stoul(F[2]);
    T.ConnIndex = F[3] == "mux" ? 0 : 1;
    T.Text = readFile(F[4]);
    size_t Pos = 0;
    while (Pos < T.Text.size()) {
      size_t Nl = T.Text.find('\n', Pos);
      if (Nl == std::string::npos)
        die(F[4] + ": missing final newline");
      if (T.Text[Pos] == 'c' || T.Text[Pos] == 'a')
        T.TxnEnds.push_back(Nl + 1);
      Pos = Nl + 1;
    }
    if (T.TxnEnds.empty() || T.TxnEnds.back() != T.Text.size())
      die(F[4] + ": does not end at a transaction boundary");
    Ts.push_back(std::move(T));
  }
  size_t TotalTxns = 0;
  for (const Tenant &T : Ts)
    TotalTxns += T.TxnEnds.size();
  for (Tenant &T : Ts)
    T.Rate = Phase1Rate * double(T.TxnEnds.size()) / double(TotalTxns);

  std::vector<Conn> Conns(2);
  Conns[0].Mux = true;
  for (size_t I = 0; I < Ts.size(); ++I)
    Conns[Ts[I].ConnIndex].Tenants.push_back(I);
  for (Conn &C : Conns) {
    if (C.Tenants.empty()) {
      C.Open = false;
      continue;
    }
    std::string Err;
    C.Sock = tcpConnect("127.0.0.1", Port, &Err);
    if (!C.Sock.valid())
      die("connect: " + Err);
    C.Sock.setNonBlocking(true);
  }
  LoadGen G(std::move(Ts), Conns);

  // Handshakes, one at a time, timed HELLO -> OK.
  for (size_t I = 0; I < G.Tenants.size(); ++I) {
    Tenant &T = G.Tenants[I];
    Conn &C = Conns[T.ConnIndex];
    std::string Hello = "HELLO " + T.Name + " " + T.Level +
                        " interval=256 window=" + std::to_string(T.Window) +
                        (C.Mux ? " mux=on" : "") + "\n";
    auto H0 = Clock::now();
    size_t Before = G.HelloReplies.size();
    G.queue(C, Hello);
    while (G.HelloReplies.size() == Before && C.Open &&
           msBetween(H0, Clock::now()) < TimeoutS * 1000)
      G.step(5);
    if (G.HelloReplies.size() == Before)
      die("no reply to HELLO for " + T.Name);
    T.HelloMs = msBetween(H0, Clock::now());
    Tr.record("server.hello", H0, Clock::now());
  }

  // Phase 1: the fixed offered rate as one burst per slot. Each slot
  // queues every tenant's transactions due by the slot's start, then one
  // STATS probe per tenant right behind them: the probe's reply waits for
  // the server to check the burst, so it times how far behind each
  // tenant's checker is. A late slot stays due at its start.
  const auto P1 = Clock::now();
  const double T0 = secondsSince(P1);
  for (size_t Slot = 0;; ++Slot) {
    const double Due = T0 + double(Slot) * SlotS;
    if (Due - T0 >= Phase1S)
      break;
    while (G.now() < Due)
      G.step(std::max(0, int((Due - G.now()) * 1000)));
    double Now = G.now();
    G.LagMax = std::max(G.LagMax, Now - Due);
    for (size_t I = 0; I < G.Tenants.size(); ++I) {
      Tenant &T = G.Tenants[I];
      size_t Txns = std::min(T.TxnEnds.size(),
                             size_t(std::floor(T.Rate * (Due - T0))));
      if (Txns > T.QueuedTxns)
        G.queueData(T, T.QueuedTxns, Txns);
      G.queueProbe(I, Due);
    }
    G.step(0);
  }
  const auto P2 = Clock::now();
  Tr.record("loadgen.phase1", P1, P2);

  // Phase 2: everything else, unthrottled, then END; wait for every FINAL.
  size_t Phase1Txns = 0;
  for (size_t I = 0; I < G.Tenants.size(); ++I) {
    Tenant &T = G.Tenants[I];
    T.Phase1Txns = T.QueuedTxns;
    Phase1Txns += T.QueuedTxns;
    if (T.QueuedTxns < T.TxnEnds.size())
      G.queueData(T, T.QueuedTxns, T.TxnEnds.size());
    G.queueEnd(I);
  }
  auto AllDone = [&] {
    for (const Tenant &T : G.Tenants)
      if (T.FinalAt < 0 || !T.Bye)
        return false;
    return true;
  };
  while (!AllDone() && msBetween(P2, Clock::now()) < TimeoutS * 1000) {
    bool AnyOpen = false;
    for (const Conn &C : Conns)
      AnyOpen |= C.Open;
    if (!AnyOpen)
      break;
    G.step(20);
  }
  double LastFinal = secondsSince(P2);
  for (const Tenant &T : G.Tenants)
    LastFinal = std::max(LastFinal, T.FinalAt);
  auto P2End = Origin + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(LastFinal));
  Tr.record("loadgen.phase2", P2, P2End);
  for (size_t I = 0; I < G.Tenants.size(); ++I) {
    const Tenant &T = G.Tenants[I];
    if (T.EndSent >= 0 && T.FinalAt >= 0)
      Tr.record("server.end_to_final",
                Origin + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(T.EndSent)),
                Origin + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(T.FinalAt)),
                int(10 + I));
  }
  for (Conn &C : Conns)
    C.Sock.close();
  Tr.write();

  std::string Out = "{\"phase1_start\":" + std::to_string(T0) +
                    ",\"phase2_start\":" + std::to_string(secondsSince(P2)) +
                    ",\"phase2_end\":" + std::to_string(LastFinal) +
                    ",\"phase1_txns\":" + std::to_string(Phase1Txns) +
                    ",\"total_txns\":" + std::to_string(TotalTxns) +
                    ",\"lag_ms_max\":" + std::to_string(G.LagMax * 1000) +
                    ",\"unexpected\":" + std::to_string(G.Unexpected) +
                    ",\"errors\":[";
  for (size_t I = 0; I < G.Errors.size(); ++I)
    Out += std::string(I ? "," : "") + "\"" + jsonEscape(G.Errors[I]) + "\"";
  std::vector<double> BT, BB;
  for (auto [At, Bytes] : G.Backlog) {
    BT.push_back(At);
    BB.push_back(Bytes);
  }
  Out += "],\"backlog_t\":" + jsonList(BT) +
         ",\"backlog_bytes\":" + jsonList(BB) + ",\"tenants\":[";
  for (size_t I = 0; I < G.Tenants.size(); ++I) {
    const Tenant &T = G.Tenants[I];
    std::vector<double> Due;
    for (const Probe &P : T.Probes)
      Due.push_back(P.Due);
    Out += std::string(I ? "," : "") + "{\"name\":\"" + T.Name +
           "\",\"level\":\"" + T.Level +
           "\",\"window\":" + std::to_string(T.Window) +
           ",\"txns\":" + std::to_string(T.TxnEnds.size()) +
           ",\"phase1_txns\":" + std::to_string(T.Phase1Txns) +
           ",\"hello_ms\":" + std::to_string(T.HelloMs) +
           ",\"violations\":" + std::to_string(T.Violations) +
           ",\"end_sent\":" + std::to_string(T.EndSent) +
           ",\"final_at\":" + std::to_string(T.FinalAt) +
           ",\"bye\":" + (T.Bye ? "true" : "false") + ",\"final\":\"" +
           jsonEscape(T.Final) + "\",\"probe_due\":" + jsonList(Due) +
           ",\"replies\":" + jsonList(T.Replies) + "}";
  }
  Out += "]}";
  std::printf("%s\n", Out.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: perfbench_driver gen|monitor|oneshot|loadgen --key value...");
  std::string Cmd = Argv[1];
  auto Args = parseArgs(Argc, Argv, 2);
  if (Cmd == "gen")
    return cmdGen(Args);
  if (Cmd == "monitor")
    return cmdMonitor(Args);
  if (Cmd == "oneshot")
    return cmdOneshot(Args);
  if (Cmd == "loadgen")
    return cmdLoadgen(Args);
  die("unknown subcommand '" + Cmd + "'");
}
