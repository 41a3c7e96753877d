//===- checker/monitor.cpp - Streaming online-checking session -------------===//

#include "checker/monitor.h"

#include "checker/check_ra.h"
#include "checker/checkpoint_chunks.h"
#include "checker/read_consistency.h"
#include "obs/trace.h"
#include "support/assert.h"
#include "support/serialize.h"

#include <algorithm>
#include <chrono>

using namespace awdit;

namespace {

const char *edgeKindName(EdgeKind Kind) {
  switch (Kind) {
  case EdgeKind::So:
    return "so";
  case EdgeKind::Wr:
    return "wr";
  case EdgeKind::Inferred:
    return "co'";
  }
  return "?";
}

} // namespace

Monitor::Monitor(const MonitorOptions &Options, ViolationSink *Sink)
    : Opts(Options), Sink(Sink),
      Saturation(Options.Level, SaturationState::Mode::Streaming) {}

SessionId Monitor::addSession() {
  Live.Sessions.emplace_back();
  Live.SoBase.push_back(0);
  Saturation.addSession();
  return static_cast<SessionId>(Live.Sessions.size() - 1);
}


TxnId Monitor::beginTxn(SessionId S) {
  AWDIT_ASSERT(S < Live.Sessions.size(), "beginTxn: unknown session");
  AWDIT_ASSERT(!Finalized, "beginTxn: monitor already finalized");
  ensureAdoptedIndex();
  Transaction T;
  T.Session = S;
  // Open transactions are not yet part of T_c: Committed flips on commit().
  T.Committed = false;
  Live.Txns.push_back(std::move(T));
  Meta.emplace_back();
  Meta.back().Ts = CurrentTime;
  TxnId Id = Live.txnEnd() - 1;
  OpenTxns.insert(OpenTxns.end(), Id); // ids only grow: O(1) with the hint
  ++Stats.IngestedTxns;
  return Id;
}

void Monitor::read(TxnId T, Key K, Value V) {
  append(T, Operation::read(K, V));
}

bool Monitor::write(TxnId T, Key K, Value V) {
  return append(T, Operation::write(K, V));
}

bool Monitor::append(TxnId T, Operation Op) {
  if (ForceAbortedIds.count(T))
    return true; // the hung transaction was force-aborted; drop quietly
  Transaction &Txn = txnRef(T);
  AWDIT_ASSERT(meta(T).Open, "append: transaction already closed");
  if (Op.isWrite()) {
    uint32_t OpIdx = static_cast<uint32_t>(Txn.Ops.size());
    if (!Writes.record(Op.K, Op.V, T, OpIdx)) {
      if (ErrText.empty())
        ErrText = duplicateWriteMessage(Op.K, Op.V);
      return false;
    }
    // Retroactive resolution: readers that closed before this write
    // arrived re-derive at the next checking pass.
    auto It = PendingReads.find(KeyValue{Op.K, Op.V});
    if (It != PendingReads.end()) {
      for (auto [Reader, ReadOp] : It->second) {
        (void)ReadOp;
        markStale(Reader);
        --Stats.UnresolvedReads;
      }
      PendingReads.erase(It);
    }
  }
  Txn.Ops.push_back(Op);
  countKey(Op.K);
  ++Live.TotalOps;
  ++Stats.IngestedOps;
  return true;
}

void Monitor::commit(TxnId T) {
  if (ForceAbortedIds.count(T))
    return; // already aborted by the force-abort policy
  closeTxn(T, /*Committed=*/true);
}

void Monitor::abortTxn(TxnId T) {
  if (ForceAbortedIds.count(T))
    return; // already aborted by the force-abort policy
  closeTxn(T, /*Committed=*/false);
}

void Monitor::advanceTime(uint64_t Now) {
  if (!HasTime) {
    // First timestamp: everything ingested so far predates the clock, so
    // its lifecycle times are unknown. Anchor them here — otherwise a
    // stream whose ticks start at a large absolute value (epoch millis)
    // would instantly age out, or force-abort, transactions that are
    // seconds old.
    HasTime = true;
    CurrentTime = Now;
    for (TxnMeta &M : Meta)
      M.Ts = Now;
    return;
  }
  if (Now > CurrentTime)
    CurrentTime = Now;
}

void Monitor::closeTxn(TxnId Id, bool Committed) {
  TxnMeta &M = meta(Id);
  AWDIT_ASSERT(M.Open, "closeTxn: transaction already closed");
  M.Open = false;
  M.Ts = CurrentTime;
  OpenTxns.erase(Id);
  Transaction &Txn = txnRef(Id);
  Txn.Committed = Committed;
  if (Committed) {
    std::vector<TxnId> &Sess = Live.Sessions[Txn.Session];
    Txn.SoIndex = Live.SoBase[Txn.Session] + static_cast<uint32_t>(Sess.size());
    Sess.push_back(Id);
    ++Live.CommittedCount;
    ++Stats.CommittedTxns;
  }

  // Schedule checking; with a cadence, resolve the reads now (see the
  // declaration for why not without one).
  if (Opts.CheckIntervalTxns) {
    if (!deriveTxn(Id))
      meta(Id).Deferred = true;
    Dirty.insert(Dirty.end(), Id);
  } else {
    markStale(Id);
  }

  // Wake readers that resolved to this transaction while it was open:
  // its commit status is now known.
  auto It = WaitersOnClose.find(Id);
  if (It != WaitersOnClose.end()) {
    for (TxnId Reader : It->second)
      markStale(Reader);
    WaitersOnClose.erase(It);
  }

  if (Committed && Opts.CheckIntervalTxns &&
      ++CommitsSinceFlush >= Opts.CheckIntervalTxns)
    flush(/*Final=*/false);
}

void Monitor::markStale(TxnId Id) {
  meta(Id).Stale = true;
  Dirty.insert(Dirty.end(), Id);
}

bool Monitor::deriveTxn(TxnId Id) {
  Transaction &T = txnRef(Id);
  // The previous derivation, if any: a read resolves to the same writer
  // every time (values are unique), so what it already recorded — the
  // parked unresolved read, the writer's reader-index entry — stays valid.
  std::vector<ReadInfo> &Prev = PrevReads;
  Prev.assign(T.Reads.begin(), T.Reads.end());
  T.Reads.clear();
  // Exactly: a taken history keeps this buffer.
  size_t NumReads = 0;
  for (const Operation &Op : T.Ops)
    NumReads += Op.isRead();
  T.Reads.reserve(NumReads);

  bool AllWritersClosed = true;
  for (uint32_t OpIdx = 0; OpIdx < T.Ops.size(); ++OpIdx) {
    const Operation &Op = T.Ops[OpIdx];
    if (Op.isWrite())
      continue;
    ReadInfo RI{OpIdx, Op.K, Op.V, NoTxn, NoOp};
    bool Masked = maskedWriter(Id, OpIdx) != nullptr;
    if (!Masked) {
      if (const WriteSite *Site = Writes.find(Op.K, Op.V)) {
        RI.Writer = Site->T;
        RI.WriterOp = Site->Op;
      }
    }
    uint32_t ReadIdx = static_cast<uint32_t>(T.Reads.size());
    bool Known = ReadIdx < Prev.size() && Prev[ReadIdx].Writer == RI.Writer;
    T.Reads.push_back(RI);

    if (RI.Writer == NoTxn) {
      if (!Masked && !Known) {
        // No write site yet: park the read for retroactive resolution.
        std::vector<std::pair<TxnId, uint32_t>> &Waiters =
            PendingReads[KeyValue{Op.K, Op.V}];
        if (std::find(Waiters.begin(), Waiters.end(),
                      std::make_pair(Id, OpIdx)) == Waiters.end()) {
          Waiters.emplace_back(Id, OpIdx);
          ++Stats.UnresolvedReads;
        }
      }
      continue;
    }
    if (RI.Writer == Id)
      continue; // Internal read; never external.
    if (!Known)
      noteReader(RI.Writer, Id, ReadIdx);
    if (meta(RI.Writer).Open) {
      // The writer's commit status is unknown; re-derive when it closes.
      AllWritersClosed = false;
      std::vector<TxnId> &Waiters = WaitersOnClose[RI.Writer];
      if (std::find(Waiters.begin(), Waiters.end(), Id) == Waiters.end())
        Waiters.push_back(Id);
    }
  }

  deriveWriteKeys(T, KeyScratch);
  classifyExternalReads(Id);
  return AllWritersClosed;
}

const uint64_t *Monitor::maskedWriter(TxnId Id, uint32_t OpIdx) const {
  const std::vector<std::pair<uint32_t, uint64_t>> &Masked =
      meta(Id).links().Masked;
  auto It = std::lower_bound(Masked.begin(), Masked.end(),
                             std::make_pair(OpIdx, uint64_t(0)));
  return It != Masked.end() && It->first == OpIdx ? &It->second : nullptr;
}

void Monitor::classifyExternalReads(TxnId Id) {
  Transaction &T = txnRef(Id);
  T.ExtReads.clear();
  T.ReadFroms.clear();
  for (uint32_t ReadIdx = 0; ReadIdx < T.Reads.size(); ++ReadIdx) {
    const ReadInfo &RI = T.Reads[ReadIdx];
    if (RI.Writer == NoTxn || RI.Writer == Id || meta(RI.Writer).Open ||
        !txnRef(RI.Writer).Committed)
      continue;
    T.ExtReads.push_back(ReadIdx);
    if (std::find(T.ReadFroms.begin(), T.ReadFroms.end(), RI.Writer) ==
        T.ReadFroms.end())
      T.ReadFroms.push_back(RI.Writer);
  }
}

void Monitor::replay(const History &H) {
  while (Live.Sessions.size() < H.numSessions())
    addSession();
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    TxnId M = beginTxn(T.Session);
    for (const Operation &Op : T.Ops)
      append(M, Op);
    if (T.Committed)
      commit(M);
    else
      abortTxn(M);
  }
}

void Monitor::adopt(const History &H) {
  AWDIT_ASSERT(Live.Txns.empty() && Live.Sessions.empty() && !Finalized,
               "adopt: monitor must be pristine");
  // Take the resolved history over wholesale: H was produced by
  // HistoryBuilder::build() (or an earlier finalize), so every derived
  // index is already in its final state and nothing needs re-deriving —
  // adopted transactions are not marked dirty, and the write index is
  // materialized lazily, only if streaming or checking continues (an
  // adopt-then-finalize session never needs it).
  Live = H;
  Meta.resize(Live.Txns.size());
  for (TxnMeta &M : Meta)
    M.Open = false;
  Live.SoBase.assign(Live.Sessions.size(), 0);
  for (size_t S = 0; S < Live.Sessions.size(); ++S)
    Saturation.addSession();
  AdoptedIndexPending = true;
  Stats.IngestedTxns += Live.Txns.size();
  Stats.IngestedOps += Live.TotalOps;
  Stats.CommittedTxns += Live.CommittedCount;
}

void Monitor::ensureAdoptedIndex() {
  if (!AdoptedIndexPending)
    return;
  AdoptedIndexPending = false;
  // Populate the write index, key universe and reader index so new
  // ingestion resolves (and duplicate-detects) against the adopted writes,
  // and queue the adopted transactions as the saturation engine's first
  // delta.
  for (TxnId Id = Base; Id < Live.txnEnd(); ++Id) {
    const Transaction &T = txnRef(Id);
    for (uint32_t OpIdx = 0; OpIdx < T.Ops.size(); ++OpIdx)
      if (T.Ops[OpIdx].isWrite())
        Writes.record(T.Ops[OpIdx].K, T.Ops[OpIdx].V, Id, OpIdx);
    if (T.Committed)
      AdoptedReady.push_back(Id);
  }
  indexWindow();
}

void Monitor::countKey(Key K) {
  KeyRefs.add(K);
  Live.KeyCount = KeyRefs.size();
}

void Monitor::noteReader(TxnId Writer, TxnId Reader, uint32_t ReadIdx) {
  // Only eviction reads the index.
  if (!Opts.WindowTxns && !Opts.WindowEdges && !Opts.WindowAgeTicks)
    return;
  std::vector<std::pair<TxnId, uint32_t>> &Readers =
      meta(Writer).links().Readers;
  if (Readers.empty() || Readers.back() != std::make_pair(Reader, ReadIdx))
    Readers.emplace_back(Reader, ReadIdx);
}

void Monitor::indexWindow() {
  for (TxnId Id = Base; Id < Live.txnEnd(); ++Id) {
    for (const Operation &Op : txnRef(Id).Ops)
      countKey(Op.K);
    const std::vector<ReadInfo> &Reads = txnRef(Id).Reads;
    for (uint32_t ReadIdx = 0; ReadIdx < Reads.size(); ++ReadIdx) {
      TxnId Writer = Reads[ReadIdx].Writer;
      if (Writer != NoTxn && Writer != Id && Writer >= Base &&
          Writer < Live.txnEnd())
        noteReader(Writer, Id, ReadIdx);
    }
  }
}

History Monitor::takeHistory() {
  AWDIT_ASSERT(!Finalized, "takeHistory: monitor already finalized");
  AWDIT_ASSERT(Stats.EvictedTxns == 0,
               "takeHistory: window was evicted; the history is partial");
  Finalized = true;
  for (size_t I = 0; I < Meta.size(); ++I)
    AWDIT_ASSERT(!Meta[I].Open, "takeHistory: transaction still open");
  {
    AWDIT_SPAN("load.derive");
    for (TxnId Id : Dirty)
      if (meta(Id).Stale)
        deriveTxn(Id);
  }
  Dirty.clear();
  Live.SoBase.clear();
  return std::move(Live);
}

bool Monitor::check() {
  flush(/*Final=*/false);
  return !AnyViolation;
}

void Monitor::forceAbortHung() {
  if (!Opts.ForceAbortOpenTicks || !HasTime)
    return;
  std::vector<TxnId> Hung;
  for (TxnId Id : OpenTxns)
    if (CurrentTime - meta(Id).Ts >= Opts.ForceAbortOpenTicks)
      Hung.push_back(Id);
  for (TxnId Id : Hung) {
    // The session may come back and keep using the handle: remember the
    // id forever (one entry per forced abort) so late operations and the
    // eventual commit/abort are dropped instead of touching a closed —
    // possibly already evicted — transaction.
    ForceAbortedIds.insert(Id);
    closeTxn(Id, /*Committed=*/false);
    ++Stats.ForcedAborts;
  }
}

void Monitor::flush(bool Final) {
  AWDIT_SPAN("flush");
  uint64_t FlushT0 = obs::traceNowNanos();
  auto FlushStart = std::chrono::steady_clock::now();
  ++Stats.Flushes;
  CommitsSinceFlush = 0;
  ensureAdoptedIndex();
  forceAbortHung();

  // Derive the stale dirty transactions; the rest keep their close-time
  // derivation. Those with a still-open writer stay dirty until it closes.
  // Adopted transactions join the first delta as-is: their derived state
  // was taken over wholesale.
  std::vector<TxnId> Ready;
  Ready.swap(AdoptedReady);
  std::vector<TxnId> DirtyNow(Dirty.begin(), Dirty.end());
  for (TxnId Id : DirtyNow) {
    TxnMeta &M = meta(Id);
    if (M.Open)
      continue;
    if (M.Stale) {
      M.Stale = false;
      M.Deferred = !deriveTxn(Id);
    }
    if (M.Deferred)
      continue;
    Dirty.erase(Id);
    if (txnRef(Id).Committed)
      Ready.push_back(Id);
  }
  std::sort(Ready.begin(), Ready.end());
  Ready.erase(std::unique(Ready.begin(), Ready.end()), Ready.end());

  std::vector<Violation> Found;

  // Read-level axioms for the affected transactions. Thin-air reads are
  // withheld until the stream ends: the write may simply not have arrived
  // yet (they are tracked in PendingReads meanwhile).
  {
    AWDIT_SPAN("flush.read_check");
    for (TxnId Id : Ready) {
      checkReadConsistencyTxn(Live, Id, ReadScratch, Found);
      if (Opts.Level == IsolationLevel::ReadAtomic)
        checkRepeatableReadsTxn(Live, Id, ReadScratch, Found);
    }
    Found.erase(std::remove_if(Found.begin(), Found.end(),
                               [](const Violation &V) {
                                 return V.Kind == ViolationKind::ThinAirRead;
                               }),
                Found.end());
  }

  // Thin-air reads are never reported here. Without evictions the
  // canonical finalize pass reports them exactly; after evictions an
  // unresolved read is indistinguishable from a read of an evicted write,
  // so it is only counted (UnresolvedReads / EvictedUnresolvedReads) —
  // the windowed-mode completeness trade-off.

  // The incremental saturation pass: only the delta and what it reaches
  // is reprocessed; a cycle is reported the moment its closing edge is
  // inserted into the maintained topological order.
  uint64_t DeltaPreNs = obs::traceNowNanos() - FlushT0;
  Saturation.flushDelta(Live, Ready, Found);

  uint64_t FinalizeT0 = obs::traceNowNanos();
  {
    AWDIT_SPAN("flush.finalize");
    for (Violation &V : Found)
      emitViolation(std::move(V));
    Stats.GraphEdges = Saturation.numGraphEdges();
    Stats.InferredEdges = Saturation.numInferredEdges();
  }
  uint64_t EvictT0 = obs::traceNowNanos();
  if (!Final) {
    AWDIT_SPAN("flush.evict");
    maybeEvict();
  }
  Stats.LiveTxns = Live.txnEnd() - Base;

  // Phase accounting: the derive + read-level segment above counts toward
  // delta-build, the saturation pass splits itself, then finalize (emit)
  // and evict.
  SaturationState::FlushPhaseNanos Ph = Saturation.takeFlushPhaseNanos();
  uint64_t Phases[obs::NumFlushPhases] = {};
  Phases[unsigned(obs::FlushPhase::DeltaBuild)] =
      (DeltaPreNs + Ph.DeltaBuild) / 1000;
  Phases[unsigned(obs::FlushPhase::Speculate)] = Ph.Speculate / 1000;
  Phases[unsigned(obs::FlushPhase::Merge)] = Ph.Merge / 1000;
  Phases[unsigned(obs::FlushPhase::Pk)] = Ph.Pk / 1000;
  Phases[unsigned(obs::FlushPhase::Finalize)] = (EvictT0 - FinalizeT0) / 1000;
  Phases[unsigned(obs::FlushPhase::Evict)] =
      (obs::traceNowNanos() - EvictT0) / 1000;
  obs::PipelineMetrics &M = obs::metrics();
  for (unsigned I = 0; I < obs::NumFlushPhases; ++I) {
    M.FlushPhases[I].record(Phases[I]);
    PhaseMicros[I] += Phases[I];
  }
  uint64_t FlushMicros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - FlushStart)
          .count());
  M.FlushTotal.record(FlushMicros);
  FlushHist.record(FlushMicros);
  Stats.FlushMicros += FlushMicros;
}

std::string Monitor::fingerprint(const Violation &V) {
  std::string Fp = std::to_string(static_cast<int>(V.Kind)) + "|" +
                   std::to_string(V.T) + "|" + std::to_string(V.OpIndex) +
                   "|" + std::to_string(V.Other);
  for (const WitnessEdge &E : V.Cycle) {
    Fp += "|";
    Fp += std::to_string(E.From) + ">" + std::to_string(E.To) + ":" +
          std::to_string(static_cast<int>(E.Kind));
  }
  return Fp;
}

bool Monitor::emitViolation(Violation V) {
  if (!V.Cycle.empty()) {
    // One report per emerging cyclic region: as the stream grows, a cyclic
    // region can grow and its extracted witness change; re-reporting it
    // every pass would flood the sink.
    for (const WitnessEdge &E : V.Cycle)
      if (ReportedCycleTxns.count(E.From))
        return false;
    for (const WitnessEdge &E : V.Cycle)
      ReportedCycleTxns.insert(E.From);
  }
  if (!ReportedFp.insert(fingerprint(V)).second)
    return false;
  AnyViolation = true;
  ++Stats.ReportedViolations;
  if (Sink)
    Sink->onViolation(V, describe(V));
  if (StreamReported.size() < MaxWindowedReportViolations)
    StreamReported.push_back(std::move(V));
  return true;
}

void Monitor::maybeEvict() {
  size_t LiveTxns = Live.txnEnd() - Base;
  size_t Target = 0;
  if (Opts.WindowTxns && LiveTxns > Opts.WindowTxns)
    Target = LiveTxns - Opts.WindowTxns;
  if (Opts.WindowEdges && Stats.GraphEdges > Opts.WindowEdges)
    Target = std::max(Target, LiveTxns / 4);
  size_t AgeTarget = 0;
  if (Opts.WindowAgeTicks && HasTime && CurrentTime > Opts.WindowAgeTicks) {
    // Age horizon: the closed prefix whose close timestamps fell out of
    // the window. Bounded by the first open transaction anyway.
    uint64_t Horizon = CurrentTime - Opts.WindowAgeTicks;
    while (AgeTarget < LiveTxns && !meta(Base + AgeTarget).Open &&
           meta(Base + AgeTarget).Ts < Horizon)
      ++AgeTarget;
    Target = std::max(Target, AgeTarget);
  }
  if (Target == 0)
    return;

  // Only a prefix of fully processed transactions can leave: stop at the
  // first still-open or still-dirty one. The prefix must also be closed
  // under so predecessors — a session that commits out of begin order
  // waits until its earlier-committed members can go too — so every
  // session loses an so prefix and survivors keep their so positions.
  size_t Limit = std::min(Target, Dirty.empty()
                                      ? LiveTxns
                                      : static_cast<size_t>(*Dirty.begin() -
                                                            Base));
  size_t Count = 0;
  TxnId MaxPred = 0;
  for (size_t I = 0; I < Limit && !meta(Base + I).Open; ++I) {
    const Transaction &T = txnRef(Base + I);
    if (T.Committed && T.SoIndex > Live.SoBase[T.Session])
      MaxPred = std::max(MaxPred, Live.sessionMember(T.Session, T.SoIndex - 1));
    if (MaxPred <= Base + I)
      Count = I + 1;
  }
  if (Count > 0) {
    Stats.AgeEvictedTxns += std::min(Count, AgeTarget);
    evict(static_cast<TxnId>(Base + Count));
  }
}

void Monitor::evict(TxnId NewBase) {
  ++Stats.Compactions;
  Stats.EvictedTxns += NewBase - Base;

  // The engine goes first: it reads the evicted transactions.
  Saturation.evict(Live, NewBase);

  // Each evicted transaction takes along what it owns.
  std::vector<SessionId> Shrunk;
  for (TxnId Id = Base; Id < NewBase; ++Id) {
    Transaction &T = txnRef(Id);
    Live.TotalOps -= T.Ops.size();
    for (const Operation &Op : T.Ops) {
      KeyRefs.release(Op.K);
      if (Op.isWrite())
        Writes.erase(Op.K, Op.V);
    }
    Live.KeyCount = KeyRefs.size();
    for (const ReadInfo &RI : T.Reads) {
      if (RI.Writer != NoTxn || maskedWriter(Id, RI.OpIndex))
        continue;
      // An unresolved read leaves with its reader (counted).
      auto It = PendingReads.find(KeyValue{RI.K, RI.V});
      if (It == PendingReads.end() ||
          !std::erase(It->second, std::make_pair(Id, RI.OpIndex)))
        continue;
      ++Stats.EvictedUnresolvedReads;
      --Stats.UnresolvedReads;
      if (It->second.empty())
        PendingReads.erase(It);
    }
    // Survivors' reads of this writer are masked: excluded from checking,
    // never reported as thin-air, and dropped from the reader's external
    // reads in place. The mask keeps the original writer, which the
    // chunked checkpoint writes so the read's bytes do not change.
    const TxnMeta &M = meta(Id);
    for (auto [Reader, ReadIdx] : M.links().Readers) {
      if (Reader < NewBase)
        continue;
      Transaction &R = txnRef(Reader);
      ReadInfo &RI = R.Reads[ReadIdx];
      if (RI.Writer != Id)
        continue; // a repeated entry, already masked
      std::vector<std::pair<uint32_t, uint64_t>> &Masked =
          meta(Reader).links().Masked;
      std::pair<uint32_t, uint64_t> Entry{
          RI.OpIndex, (static_cast<uint64_t>(Id) << 32) | RI.WriterOp};
      Masked.insert(std::upper_bound(Masked.begin(), Masked.end(), Entry),
                    Entry);
      RI.Writer = NoTxn;
      RI.WriterOp = NoOp;
      ++Stats.EvictedWriterReads;
      std::erase(R.ExtReads, ReadIdx);
      std::erase(R.ReadFroms, Id);
    }
    if (T.Committed) {
      --Live.CommittedCount;
      Shrunk.push_back(T.Session);
    }
    // Evicted transactions can never join a new cycle (their edges are
    // gone), so their delivery-dedup entries are prunable.
    ReportedCycleTxns.erase(Id);
    T = Transaction();
    meta(Id) = TxnMeta();
  }
  Base = NewBase;

  // Each session lost an so prefix (see maybeEvict): drop it in one go.
  std::sort(Shrunk.begin(), Shrunk.end());
  Shrunk.erase(std::unique(Shrunk.begin(), Shrunk.end()), Shrunk.end());
  for (SessionId S : Shrunk) {
    std::vector<TxnId> &Sess = Live.Sessions[S];
    auto FirstLive = std::find_if(Sess.begin(), Sess.end(),
                                  [&](TxnId Id) { return Id >= Base; });
    Live.SoBase[S] += static_cast<uint32_t>(FirstLive - Sess.begin());
    Sess.erase(Sess.begin(), FirstLive);
  }

  // Release the evicted slots once they reach a quarter of the live ones.
  size_t Dead = Base - Live.TxnBase;
  if (Dead >= 64 && 4 * Dead >= Live.Txns.size() - Dead) {
    Live.Txns.erase(Live.Txns.begin(), Live.Txns.begin() + Dead);
    Meta.erase(Meta.begin(), Meta.begin() + Dead);
    Live.TxnBase = Base;
  }
}

CheckReport Monitor::finalize() {
  AWDIT_ASSERT(!Finalized, "finalize: called twice");
  Finalized = true;

  // Online semantics: a transaction that never committed did not commit.
  for (TxnId Id = Base; Id < Live.txnEnd(); ++Id)
    if (meta(Id).Open)
      closeTxn(Id, /*Committed=*/false);

  if (Stats.EvictedTxns == 0) {
    // Exact mode: bring every derived index to its final state, then run
    // the canonical one-shot engine over the full ingested history, so the
    // report is bit-identical to checkIsolation() on it.
    for (TxnId Id : Dirty) {
      if (!meta(Id).Stale)
        continue;
      bool Derived = deriveTxn(Id);
      AWDIT_ASSERT(Derived, "finalize: writer still open after close-all");
      (void)Derived;
    }
    Dirty.clear();
    CheckReport Report = detail::checkOneShot(Live, Opts.Level, Opts.Check);
    // Deliver anything the incremental passes had not yet surfaced.
    // Monitor ids equal history ids here (nothing was evicted).
    for (const Violation &V : Report.Violations)
      emitViolation(V);
    Stats.LiveTxns = Live.numTxns();
    Stats.InferredEdges = Report.Stats.InferredEdges;
    Stats.GraphEdges = Report.Stats.GraphEdges;
    return Report;
  }

  // Windowed mode: one last incremental pass, then aggregate what the
  // stream produced. Completeness is bounded by the window — that is the
  // contract of eviction; in particular thin-air reads are not reported
  // (indistinguishable from reads of evicted writes), only counted in
  // UnresolvedReads / EvictedUnresolvedReads.
  flush(/*Final=*/true);
  CheckReport Report;
  Report.Consistent = !AnyViolation;
  Report.Violations = StreamReported;
  Report.Stats.InferredEdges = Stats.InferredEdges;
  Report.Stats.GraphEdges = Stats.GraphEdges;
  return Report;
}

const MonitorStats &Monitor::stats() {
  Stats.LiveTxns = Live.txnEnd() - Base;
  Stats.InferredEdges = Saturation.numInferredEdges();
  return Stats;
}

std::string Monitor::txnLabel(TxnId MonitorId) const {
  std::string Label = "t" + std::to_string(MonitorId);
  if (MonitorId < Base)
    return Label + "(evicted)";
  if (MonitorId >= Live.txnEnd())
    return Label + "(?)";
  const Transaction &T = Live.txn(MonitorId);
  // An aborted transaction has no so position; it is labeled with its
  // session's first live one.
  Label += "(s" + std::to_string(T.Session) + "#" +
           std::to_string(T.Committed ? T.SoIndex : Live.SoBase[T.Session]);
  if (!T.Committed)
    Label += ",aborted";
  Label += ")";
  return Label;
}

std::string Monitor::describe(const Violation &V) const {
  std::string Out = violationKindName(V.Kind);
  Out += ":";
  if (!V.Cycle.empty()) {
    for (const WitnessEdge &E : V.Cycle) {
      Out += ' ';
      Out += txnLabel(E.From);
      Out += " -";
      Out += edgeKindName(E.Kind);
      Out += "->";
    }
    Out += ' ';
    Out += txnLabel(V.Cycle.front().From);
    return Out;
  }
  if (V.T != NoTxn) {
    Out += " read";
    if (V.T >= Base && V.T < Live.txnEnd() && V.OpIndex != NoOp) {
      const Transaction &T = Live.txn(V.T);
      if (V.OpIndex < T.Ops.size()) {
        const Operation &Op = T.Ops[V.OpIndex];
        Out +=
            " R(" + std::to_string(Op.K) + "," + std::to_string(Op.V) + ")";
      }
    }
    Out += " in " + txnLabel(V.T);
  }
  if (V.Other != NoTxn)
    Out += " (writer " + txnLabel(V.Other) + ")";
  return Out;
}

//===----------------------------------------------------------------------===//
// Persistent checkpoints: verbatim serialization of the monitoring state.
//===----------------------------------------------------------------------===//

namespace {

void saveViolation(ByteWriter &W, const Violation &V) {
  W.u8(static_cast<uint8_t>(V.Kind));
  W.u32(V.T);
  W.u32(V.OpIndex);
  W.u32(V.Other);
  W.u64(V.Cycle.size());
  for (const WitnessEdge &E : V.Cycle) {
    W.u32(E.From);
    W.u32(E.To);
    W.u8(static_cast<uint8_t>(E.Kind));
  }
}

bool loadViolation(ByteReader &R, Violation &V) {
  V.Kind = static_cast<ViolationKind>(R.u8());
  V.T = R.u32();
  V.OpIndex = R.u32();
  V.Other = R.u32();
  uint64_t Len = R.u64();
  if (!R.checkCount(Len, 9))
    return false;
  V.Cycle.resize(Len);
  for (uint64_t I = 0; I < Len; ++I) {
    V.Cycle[I].From = R.u32();
    V.Cycle[I].To = R.u32();
    V.Cycle[I].Kind = static_cast<EdgeKind>(R.u8());
  }
  return R.ok();
}

template <typename Container>
void saveU32Sequence(ByteWriter &W, const Container &C) {
  W.u64(C.size());
  for (uint32_t V : C)
    W.u32(V);
}

} // namespace

void Monitor::saveState(ByteWriter &W) const {
  saveStateImpl(W, /*Local=*/true);
}

void Monitor::saveStateImpl(ByteWriter &W, bool Local) const {
  AWDIT_ASSERT(!Finalized, "saveState: monitor already finalized");
  // See saveStateImpl in monitor.h for the two layouts.
  const TxnId IdShift = Local ? Base : 0;
  auto OutT = [&](TxnId T) {
    return T == NoTxn ? T : static_cast<TxnId>(T - IdShift);
  };
  const TxnId End = Live.txnEnd();

  // The live window. Transactions live at ids [Base, End) in id order, so
  // bucketing by id makes the chunk covering a given transaction
  // byte-identical until the transaction itself changes.
  W.chunk(chunkId(ckchunk::MTxns));
  W.u64(End - Base);
  for (TxnId Id = Base; Id < End; ++Id) {
    const Transaction &T = Live.txn(Id);
    W.chunk(chunkId(ckchunk::MTxns, 1 + (Id >> 4)));
    W.u32(T.Session);
    W.u32(Local && T.Committed ? T.SoIndex - Live.SoBase[T.Session]
                               : T.SoIndex);
    W.boolean(T.Committed);
    W.u64(T.Ops.size());
    for (const Operation &Op : T.Ops) {
      W.u8(static_cast<uint8_t>(Op.Kind));
      W.u64(Op.K);
      W.i64(Op.V);
    }
    W.u64(T.Reads.size());
    for (const ReadInfo &RI : T.Reads) {
      W.u32(RI.OpIndex);
      W.u64(RI.K);
      W.i64(RI.V);
      // The chunked path writes a masked read as its original pre-eviction
      // (global writer, op) — the record's bytes never change when the
      // writer is later evicted; the loader re-masks anything below the
      // window base. v1 keeps the masked sentinel (its bytes are the
      // pruned view).
      uint32_t WriterOut = OutT(RI.Writer);
      uint32_t WriterOpOut = RI.WriterOp;
      if (!Local && RI.Writer == NoTxn) {
        const uint64_t *Original = maskedWriter(Id, RI.OpIndex);
        if (Original && *Original != UnknownMaskedWriter) {
          WriterOut = static_cast<uint32_t>(*Original >> 32);
          WriterOpOut = static_cast<uint32_t>(*Original);
        }
      }
      W.u32(WriterOut);
      W.u32(WriterOpOut);
    }
    // External-read indices and read-from lists are a pure function of
    // the reads, the mask, and commit metadata (classifyExternalReads):
    // the chunked path derives them at load instead of churning chunks
    // every time an evicted writer drops out of them.
    if (Local)
      saveU32Sequence(W, T.ExtReads);
    W.u64(T.WriteKeys.size());
    for (Key K : T.WriteKeys)
      W.u64(K);
    if (Local) {
      W.u64(T.ReadFroms.size());
      for (TxnId F : T.ReadFroms)
        W.u32(OutT(F));
    }
  }
  W.chunk(chunkId(ckchunk::MSess));
  W.u64(Live.Sessions.size());
  for (size_t S = 0; S < Live.Sessions.size(); ++S) {
    const std::vector<TxnId> &Sess = Live.Sessions[S];
    W.chunk(chunkId(ckchunk::MSess, 1 + (S << 26)));
    W.u64(Sess.size());
    for (TxnId Member : Sess) {
      W.chunk(chunkId(ckchunk::MSess,
                      1 + ((S << 26) | (static_cast<uint64_t>(Member) >> 8))));
      W.u32(OutT(Member));
    }
  }
  W.chunk(chunkId(ckchunk::MMisc));
  W.u64(Live.TotalOps);
  W.u64(Live.CommittedCount);
  // Live.KeyCount is rebuilt with the key refcounts on load.

  W.u32(Base);
  W.chunk(chunkId(ckchunk::MMeta));
  for (TxnId Id = Base; Id < End; ++Id) {
    const TxnMeta &TM = meta(Id);
    W.chunk(chunkId(ckchunk::MMeta, 1 + (Id >> 6)));
    W.boolean(TM.Open);
    W.boolean(TM.Deferred);
    W.u64(TM.Ts);
  }

  Saturation.saveState(W, Local ? &Live.SoBase : nullptr);

  W.chunk(chunkId(ckchunk::MAdopted));
  W.u64(AdoptedReady.size());
  for (TxnId T : AdoptedReady)
    W.u32(OutT(T));
  W.boolean(AdoptedIndexPending);

  // wr resolution: the write-site index, sorted by (key, value).
  {
    std::vector<std::pair<KeyValue, WriteSite>> Sorted;
    Sorted.reserve(Writes.size());
    Writes.forEach([&](const KeyValue &KV, const WriteSite &Site) {
      Sorted.emplace_back(KV, Site);
    });
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &A, const auto &B) {
                return A.first.K != B.first.K ? A.first.K < B.first.K
                                              : A.first.V < B.first.V;
              });
    W.chunk(chunkId(ckchunk::MWrites));
    W.u64(Sorted.size());
    for (const auto &[KV, Site] : Sorted) {
      W.chunk(chunkId(ckchunk::MWrites, 1 + (KV.K >> 4)));
      W.u64(KV.K);
      W.i64(KV.V);
      W.u32(OutT(Site.T));
      W.u32(Site.Op);
    }
  }

  // Pending (unresolved) reads, sorted by (key, value); waiter lists
  // verbatim.
  {
    std::vector<const std::pair<const KeyValue,
                                std::vector<std::pair<TxnId, uint32_t>>> *>
        Sorted;
    Sorted.reserve(PendingReads.size());
    for (const auto &Entry : PendingReads)
      Sorted.push_back(&Entry);
    std::sort(Sorted.begin(), Sorted.end(), [](const auto *A, const auto *B) {
      return A->first.K != B->first.K ? A->first.K < B->first.K
                                      : A->first.V < B->first.V;
    });
    W.chunk(chunkId(ckchunk::MPending));
    W.u64(Sorted.size());
    for (const auto *Entry : Sorted) {
      W.chunk(chunkId(ckchunk::MPending, 1 + (Entry->first.K >> 4)));
      W.u64(Entry->first.K);
      W.i64(Entry->first.V);
      W.u64(Entry->second.size());
      for (const auto &[Reader, OpIdx] : Entry->second) {
        W.u32(OutT(Reader));
        W.u32(OpIdx);
      }
    }
  }

  // Close-waiters, sorted by writer; reader lists verbatim.
  {
    std::vector<TxnId> Writers;
    Writers.reserve(WaitersOnClose.size());
    for (const auto &[Writer, Readers] : WaitersOnClose)
      Writers.push_back(Writer);
    std::sort(Writers.begin(), Writers.end());
    W.chunk(chunkId(ckchunk::MWaiters));
    W.u64(Writers.size());
    for (TxnId Writer : Writers) {
      W.chunk(chunkId(ckchunk::MWaiters,
                      1 + (static_cast<uint64_t>(Writer) >> 4)));
      W.u32(OutT(Writer));
      const std::vector<TxnId> &Readers = WaitersOnClose.at(Writer);
      W.u64(Readers.size());
      for (TxnId Reader : Readers)
        W.u32(OutT(Reader));
    }
  }

  {
    // The chunked path serializes masked reads with their original writer
    // inline in MTxns, so it only needs MMask for entries whose original
    // writer is unknown (restored from a v1 checkpoint). v1 keeps the full
    // key set — its loader has no other way to tell masked from unresolved.
    std::vector<uint64_t> Sorted;
    for (TxnId Id = Base; Id < End; ++Id)
      for (const auto &[OpIdx, Original] : meta(Id).links().Masked)
        if (Local || Original == UnknownMaskedWriter)
          Sorted.push_back((static_cast<uint64_t>(Id) << 32) | OpIdx);
    W.chunk(chunkId(ckchunk::MMask));
    W.u64(Sorted.size());
    for (uint64_t V : Sorted) {
      // Mask keys are (id << 32 | op) in both layouts.
      W.chunk(chunkId(ckchunk::MMask, 1 + (V >> 36)));
      W.u64(V);
    }
  }

  W.chunk(chunkId(ckchunk::MDirty));
  W.u64(Dirty.size());
  for (TxnId T : Dirty)
    W.u32(OutT(T));
  W.chunk(chunkId(ckchunk::MOpen));
  W.u64(OpenTxns.size());
  for (TxnId T : OpenTxns)
    W.u32(OutT(T));
  {
    std::vector<TxnId> Sorted(ForceAbortedIds.begin(),
                              ForceAbortedIds.end());
    std::sort(Sorted.begin(), Sorted.end());
    W.chunk(chunkId(ckchunk::MForced));
    saveU32Sequence(W, Sorted); // ids as in memory in both layouts
  }

  W.chunk(chunkId(ckchunk::MSoBase));
  W.u64(Live.SoBase.size());
  for (uint32_t V : Live.SoBase)
    W.u64(V);

  // Exactly-once delivery state: this is what makes a resumed monitor
  // re-emit only the violations a never-stopped run would still emit.
  {
    std::vector<const std::string *> Sorted;
    Sorted.reserve(ReportedFp.size());
    for (const std::string &Fp : ReportedFp)
      Sorted.push_back(&Fp);
    std::sort(Sorted.begin(), Sorted.end(),
              [](const std::string *A, const std::string *B) {
                return *A < *B;
              });
    W.chunk(chunkId(ckchunk::MFp));
    W.u64(Sorted.size());
    for (size_t I = 0; I < Sorted.size(); ++I) {
      W.chunk(chunkId(ckchunk::MFp, 1 + (I >> 5)));
      W.str(*Sorted[I]);
    }
  }
  {
    std::vector<TxnId> Sorted(ReportedCycleTxns.begin(),
                              ReportedCycleTxns.end());
    std::sort(Sorted.begin(), Sorted.end());
    W.chunk(chunkId(ckchunk::MCyc));
    W.u64(Sorted.size());
    for (TxnId T : Sorted) {
      // Ids as in memory in both layouts.
      W.chunk(chunkId(ckchunk::MCyc, 1 + (static_cast<uint64_t>(T) >> 6)));
      W.u32(T);
    }
  }
  W.chunk(chunkId(ckchunk::MRep));
  W.u64(StreamReported.size());
  for (size_t I = 0; I < StreamReported.size(); ++I) {
    W.chunk(chunkId(ckchunk::MRep, 1 + (I >> 4)));
    saveViolation(W, StreamReported[I]);
  }

  W.chunk(chunkId(ckchunk::MTail));
  W.u64(Stats.IngestedTxns);
  W.u64(Stats.IngestedOps);
  W.u64(Stats.CommittedTxns);
  W.u64(Stats.Flushes);
  W.u64(Stats.ReportedViolations);
  W.u64(Stats.UnresolvedReads);
  W.u64(Stats.EvictedTxns);
  W.u64(Stats.Compactions);
  W.u64(Stats.EvictedUnresolvedReads);
  W.u64(Stats.EvictedWriterReads);
  W.u64(Stats.AgeEvictedTxns);
  W.u64(Stats.ForcedAborts);
  // Stats.FlushMicros is deliberately not serialized: wall-clock timing is
  // host-local, and including it would make the bytes non-canonical for a
  // given logical state.

  W.u64(CommitsSinceFlush);
  W.u64(CurrentTime);
  W.boolean(HasTime);
  W.boolean(AnyViolation);
  W.str(ErrText);
}

bool Monitor::loadState(ByteReader &R, std::string *Err) {
  // v1 bytes are window-local, and the window base and session bases they
  // are relative to come after the records that use them: parse once to
  // learn the bases, then again for real.
  TxnId IdBase;
  std::vector<uint32_t> SoBase;
  {
    Monitor Probe(Opts);
    ByteReader Ahead = R;
    if (!Probe.loadStateImpl(Ahead, Err, /*Local=*/true, 0, nullptr))
      return false;
    IdBase = Probe.Base;
    SoBase = std::move(Probe.Live.SoBase);
  }
  return loadStateImpl(R, Err, /*Local=*/true, IdBase, &SoBase);
}

bool Monitor::loadStateImpl(ByteReader &R, std::string *Err, bool Local,
                            TxnId IdBase,
                            const std::vector<uint32_t> *SoBase) {
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (Finalized || !Live.Txns.empty() || !Live.Sessions.empty())
    return Fail("checkpoint restore requires a pristine monitor");

  // Exact inverses of the transforms in saveStateImpl (the identity for
  // the chunked layout).
  const TxnId IdShift = Local ? IdBase : 0;
  auto InT = [&](TxnId T) {
    return T == NoTxn ? T : static_cast<TxnId>(T + IdShift);
  };
  auto InSo = [&](SessionId S, uint32_t So) -> uint32_t {
    return SoBase && S < SoBase->size() ? So + (*SoBase)[S] : So;
  };

  Live.TxnBase = IdBase;
  uint64_t NumTxns = R.u64();
  if (!R.checkCount(NumTxns, 16))
    return Fail("corrupted checkpoint (transaction count)");
  Live.Txns.resize(NumTxns);
  Meta.resize(NumTxns);
  for (uint64_t I = 0; I < NumTxns && R.ok(); ++I) {
    Transaction &T = Live.Txns[I];
    T.Session = R.u32();
    T.SoIndex = R.u32();
    T.Committed = R.boolean();
    if (T.Committed)
      T.SoIndex = InSo(T.Session, T.SoIndex);
    uint64_t NumOps = R.u64();
    if (!R.checkCount(NumOps, 17))
      return Fail("corrupted checkpoint (operation count)");
    T.Ops.resize(NumOps);
    for (Operation &Op : T.Ops) {
      Op.Kind = static_cast<OpKind>(R.u8());
      Op.K = R.u64();
      Op.V = R.i64();
    }
    uint64_t NumReads = R.u64();
    if (!R.checkCount(NumReads, 28))
      return Fail("corrupted checkpoint (read count)");
    T.Reads.resize(NumReads);
    for (ReadInfo &RI : T.Reads) {
      RI.OpIndex = R.u32();
      RI.K = R.u64();
      RI.V = R.i64();
      uint32_t GW = R.u32();
      uint32_t WOp = R.u32();
      if (!Local && GW != NoTxn && GW < IdBase) {
        // Chunked records keep a masked read's original pre-eviction writer;
        // anything below the window base was evicted, so re-mask it here.
        RI.Writer = NoTxn;
        RI.WriterOp = NoOp;
        Meta[I].links().Masked.emplace_back(
            RI.OpIndex, (static_cast<uint64_t>(GW) << 32) | WOp);
      } else {
        RI.Writer = InT(GW);
        RI.WriterOp = WOp;
      }
    }
    if (Local) {
      uint64_t NumExt = R.u64();
      if (!R.checkCount(NumExt, 4))
        return Fail("corrupted checkpoint (external reads)");
      T.ExtReads.resize(NumExt);
      for (uint32_t &E : T.ExtReads)
        E = R.u32();
    }
    uint64_t NumWk = R.u64();
    if (!R.checkCount(NumWk, 8))
      return Fail("corrupted checkpoint (write keys)");
    T.WriteKeys.resize(NumWk);
    for (Key &K : T.WriteKeys)
      K = R.u64();
    indexLastWrites(T);
    if (Local) {
      uint64_t NumRf = R.u64();
      if (!R.checkCount(NumRf, 4))
        return Fail("corrupted checkpoint (read-froms)");
      T.ReadFroms.resize(NumRf);
      for (TxnId &F : T.ReadFroms)
        F = InT(R.u32());
    }
  }

  uint64_t NumSessions = R.u64();
  if (!R.checkCount(NumSessions, 8))
    return Fail("corrupted checkpoint (session count)");
  Live.Sessions.resize(NumSessions);
  for (uint64_t S = 0; S < NumSessions && R.ok(); ++S) {
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 4))
      return Fail("corrupted checkpoint (session list)");
    Live.Sessions[S].resize(Len);
    for (TxnId &T : Live.Sessions[S])
      T = InT(R.u32());
  }
  Live.TotalOps = R.u64();
  Live.CommittedCount = R.u64();

  Base = R.u32();
  if (!Local && Base != IdBase)
    return Fail("inconsistent checkpoint (window base vs. root metadata)");
  Live.TxnBase = Base;
  for (TxnMeta &TM : Meta) {
    TM.Open = R.boolean();
    TM.Deferred = R.boolean();
    TM.Ts = R.u64();
  }
  if (!R.ok())
    return Fail("truncated checkpoint (window)");
  if (!Local) {
    // Chunked checkpoints omit ExtReads/ReadFroms: both are pure functions
    // of the reads, open flags, and commit bits, all of which are loaded by
    // this point.
    for (TxnId Id = Base; Id < Live.txnEnd(); ++Id)
      classifyExternalReads(Id);
  }

  const std::vector<uint32_t> NoSoBase;
  if (!Saturation.loadState(R, Err, Base,
                            !Local   ? nullptr
                            : SoBase ? SoBase
                                     : &NoSoBase))
    return false;

  uint64_t NumAdopted = R.u64();
  if (!R.checkCount(NumAdopted, 4))
    return Fail("corrupted checkpoint (adopted list)");
  AdoptedReady.resize(NumAdopted);
  for (TxnId &T : AdoptedReady)
    T = InT(R.u32());
  AdoptedIndexPending = R.boolean();

  uint64_t NumWrites = R.u64();
  if (!R.checkCount(NumWrites, 24))
    return Fail("corrupted checkpoint (write index)");
  for (uint64_t I = 0; I < NumWrites; ++I) {
    Key K = R.u64();
    Value V = R.i64();
    TxnId T = InT(R.u32());
    uint32_t Op = R.u32();
    if (R.ok() && T == NoTxn)
      return Fail("corrupted checkpoint (write-site entry)");
    if (R.ok() && !Writes.record(K, V, T, Op))
      return Fail("corrupted checkpoint (duplicate write-site entry)");
  }

  uint64_t NumPending = R.u64();
  if (!R.checkCount(NumPending, 24))
    return Fail("corrupted checkpoint (pending reads)");
  for (uint64_t I = 0; I < NumPending && R.ok(); ++I) {
    Key K = R.u64();
    Value V = R.i64();
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 8))
      return Fail("corrupted checkpoint (pending-read list)");
    std::vector<std::pair<TxnId, uint32_t>> Waiters(Len);
    for (auto &[Reader, OpIdx] : Waiters) {
      Reader = InT(R.u32());
      OpIdx = R.u32();
    }
    PendingReads.emplace(KeyValue{K, V}, std::move(Waiters));
  }

  uint64_t NumWaiters = R.u64();
  if (!R.checkCount(NumWaiters, 12))
    return Fail("corrupted checkpoint (close-waiters)");
  for (uint64_t I = 0; I < NumWaiters && R.ok(); ++I) {
    TxnId Writer = InT(R.u32());
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 4))
      return Fail("corrupted checkpoint (close-waiter list)");
    std::vector<TxnId> Readers(Len);
    for (TxnId &Reader : Readers)
      Reader = InT(R.u32());
    WaitersOnClose.emplace(Writer, std::move(Readers));
  }

  uint64_t NumMask = R.u64();
  if (!R.checkCount(NumMask, 8))
    return Fail("corrupted checkpoint (evicted-writer mask)");
  for (uint64_t I = 0; I < NumMask && R.ok(); ++I) {
    uint64_t MaskKey = R.u64();
    TxnId Reader = static_cast<TxnId>(MaskKey >> 32);
    if (Reader < Base || Reader >= Live.txnEnd())
      return Fail("corrupted checkpoint (evicted-writer mask)");
    std::vector<std::pair<uint32_t, uint64_t>> &Masked =
        meta(Reader).links().Masked;
    std::pair<uint32_t, uint64_t> Entry{static_cast<uint32_t>(MaskKey),
                                        UnknownMaskedWriter};
    Masked.insert(std::lower_bound(Masked.begin(), Masked.end(), Entry),
                  Entry);
  }

  auto LoadTxnSet = [&](std::set<TxnId> &Set) {
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 4))
      return false;
    for (uint64_t I = 0; I < Len; ++I)
      Set.insert(InT(R.u32()));
    return true;
  };
  if (!LoadTxnSet(Dirty))
    return Fail("corrupted checkpoint (dirty set)");
  if (!LoadTxnSet(OpenTxns))
    return Fail("corrupted checkpoint (open set)");
  // Which dirty transactions still hold a valid close-time derivation is
  // not recorded; the next pass re-derives them all. (The probe parse of a
  // v1 load holds window-local ids, hence the range check.)
  for (TxnId Id : Dirty)
    if (Id >= Base && Id < Live.txnEnd())
      meta(Id).Stale = true;
  uint64_t NumForced = R.u64();
  if (!R.checkCount(NumForced, 4))
    return Fail("corrupted checkpoint (force-aborted set)");
  for (uint64_t I = 0; I < NumForced; ++I)
    ForceAbortedIds.insert(R.u32());

  uint64_t NumSoBase = R.u64();
  if (!R.checkCount(NumSoBase, 8))
    return Fail("corrupted checkpoint (session bases)");
  Live.SoBase.resize(NumSoBase);
  for (uint32_t &V : Live.SoBase)
    V = static_cast<uint32_t>(R.u64());

  uint64_t NumFp = R.u64();
  if (!R.checkCount(NumFp, 8))
    return Fail("corrupted checkpoint (delivery fingerprints)");
  for (uint64_t I = 0; I < NumFp && R.ok(); ++I)
    ReportedFp.insert(R.str());
  uint64_t NumCycleTxns = R.u64();
  if (!R.checkCount(NumCycleTxns, 4))
    return Fail("corrupted checkpoint (cycle-txn set)");
  for (uint64_t I = 0; I < NumCycleTxns; ++I)
    ReportedCycleTxns.insert(R.u32());
  uint64_t NumReported = R.u64();
  if (!R.checkCount(NumReported, 13))
    return Fail("corrupted checkpoint (reported violations)");
  StreamReported.resize(NumReported);
  for (Violation &V : StreamReported)
    if (!loadViolation(R, V))
      return Fail("corrupted checkpoint (violation record)");

  Stats.IngestedTxns = R.u64();
  Stats.IngestedOps = R.u64();
  Stats.CommittedTxns = R.u64();
  Stats.Flushes = R.u64();
  Stats.ReportedViolations = R.u64();
  Stats.UnresolvedReads = R.u64();
  Stats.EvictedTxns = R.u64();
  Stats.Compactions = R.u64();
  Stats.EvictedUnresolvedReads = R.u64();
  Stats.EvictedWriterReads = R.u64();
  Stats.AgeEvictedTxns = R.u64();
  Stats.ForcedAborts = R.u64();

  CommitsSinceFlush = R.u64();
  CurrentTime = R.u64();
  HasTime = R.boolean();
  AnyViolation = R.boolean();
  ErrText = R.str();

  if (!R.ok())
    return Fail("truncated checkpoint (monitor state)");

  // Structural sanity: counts that must agree for the monitor to be usable.
  if (Meta.size() != Live.Txns.size() ||
      Live.SoBase.size() != Live.Sessions.size())
    return Fail("inconsistent checkpoint (structure mismatch)");

  // Derived state not worth serializing: the window's key refcounts and
  // reader index (an adopted prefix still pending its index gets both
  // when it is materialized).
  if (!AdoptedIndexPending)
    indexWindow();
  return true;
}

void Monitor::saveStateChunked(std::string &Bytes,
                               std::vector<ChunkMark> &Marks,
                               uint32_t &IdBase,
                               std::vector<uint64_t> &SoBase) const {
  Bytes.clear();
  Marks.clear();
  IdBase = Base;
  SoBase.assign(Live.SoBase.begin(), Live.SoBase.end());
  ByteWriter W(Bytes);
  W.enableChunks(&Marks);
  saveStateImpl(W, /*Local=*/false);
}

bool Monitor::loadStateChunked(std::string_view Bytes, uint32_t IdBase,
                               const std::vector<uint64_t> &SoBase,
                               std::string *Err) {
  ByteReader R(Bytes);
  if (!loadStateImpl(R, Err, /*Local=*/false, IdBase, nullptr))
    return false;
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (R.remaining() != 0)
    return Fail("trailing bytes after checkpoint state");
  if (!std::equal(SoBase.begin(), SoBase.end(), Live.SoBase.begin(),
                  Live.SoBase.end()))
    return Fail("inconsistent checkpoint (session bases vs. root metadata)");
  return true;
}
