//===- checker/monitor.h - Streaming online-checking session -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming entry point of the AWDIT library: a long-lived Monitor
/// session that ingests sessions/transactions/operations as they arrive
/// from a running database (mirroring HistoryBuilder's begin/read/write/
/// commit surface), resolves the wr relation incrementally, and drives the
/// incremental saturation engine (checker/saturation_state.h) with the
/// delta of newly committed or retroactively re-resolved transactions at a
/// configurable cadence — per-flush work is proportional to the delta, not
/// the live window. Violations are pushed to a pluggable ViolationSink the
/// moment they become detectable (read-level axioms when the transaction
/// is checked, cycles the instant the closing edge is inserted) instead of
/// being returned after the whole history has been materialized.
///
/// Without eviction, finalize() runs the one-shot engine behind
/// checkIsolation() over the ingested history, so a monitor fed a whole
/// history reports exactly what checkIsolation() does on it (enforced by
/// tests/test_monitor.cpp).
///
/// A windowed mode bounds memory on unbounded streams: transactions older
/// than a count-, edge-, or age-based horizon are evicted from the
/// in-memory window (with stats reporting what was dropped), at the
/// documented cost of completeness — anomalies whose witnesses span beyond
/// the window are no longer detectable, and reads observing evicted writes
/// are counted rather than reported as thin-air. Streams that carry
/// timestamps (advanceTime()) can additionally evict by wall-clock age and
/// force-abort long-open transactions that would otherwise pin the
/// evictable prefix behind a hung session.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_MONITOR_H
#define AWDIT_CHECKER_MONITOR_H

#include "checker/checker.h"
#include "checker/read_consistency.h"
#include "checker/saturation_state.h"
#include "checker/violation_sink.h"
#include "history/history.h"
#include "history/key_refs.h"
#include "history/wr_resolver.h"
#include "obs/histogram.h"
#include "support/assert.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace awdit {

class ByteWriter;
class ByteReader;
class ThreadPool;
struct ChunkMark;

/// Options of one monitoring session.
struct MonitorOptions {
  /// The isolation level to monitor.
  IsolationLevel Level = IsolationLevel::CausalConsistency;
  /// Options of the underlying checking algorithms (witness budget, CC
  /// variant and thread count of the canonical finalize pass, ...).
  CheckOptions Check;
  /// Run an incremental checking pass every this many commits. 0 checks
  /// only on explicit check() calls and at finalize().
  size_t CheckIntervalTxns = 0;
  /// Windowed mode: evict the oldest transactions once more than this many
  /// are live (0 = keep everything; exact checking). Only a prefix of
  /// closed, fully processed transactions can leave: a transaction that is
  /// left open indefinitely pins everything after it in memory — see
  /// ForceAbortOpenTicks for the escape hatch when streams carry
  /// timestamps.
  size_t WindowTxns = 0;
  /// Windowed mode, edge-based horizon: evict the oldest quarter of the
  /// window whenever the commit graph of the window exceeds this many
  /// edges (0 = no edge horizon).
  size_t WindowEdges = 0;
  /// Windowed mode, age-based horizon: when the stream carries timestamps
  /// (advanceTime()), evict closed transactions whose close timestamp is
  /// older than the latest timestamp minus this many ticks (0 = no age
  /// horizon). Ticks are whatever unit the stream reports.
  uint64_t WindowAgeTicks = 0;
  /// Force-abort an open transaction once it has been open for more than
  /// this many ticks of stream time (0 = never). A hung session otherwise
  /// pins the evictable prefix: nothing behind its open transaction can
  /// leave the window. Forced aborts are reported in
  /// MonitorStats::ForcedAborts; reads that observed the aborted writes
  /// are reported as aborted reads, exactly as a real abort would be. If
  /// the hung session later resumes using the handle, its operations and
  /// its eventual commit/abort are dropped quietly.
  uint64_t ForceAbortOpenTicks = 0;
};

/// Statistics of a monitoring session. Counters are cumulative over the
/// whole stream unless stated otherwise.
struct MonitorStats {
  uint64_t IngestedTxns = 0;
  uint64_t IngestedOps = 0;
  uint64_t CommittedTxns = 0;
  /// Transactions currently held in the window.
  uint64_t LiveTxns = 0;
  /// Incremental checking passes run so far.
  uint64_t Flushes = 0;
  /// Distinct inferred co' edges currently live in the window.
  uint64_t InferredEdges = 0;
  /// Edges of the window's commit graph at the last checking pass.
  uint64_t GraphEdges = 0;
  /// Violations delivered to the sink so far.
  uint64_t ReportedViolations = 0;
  /// Reads whose (key, value) has no live write yet (thin-air candidates).
  uint64_t UnresolvedReads = 0;
  // --- Windowed mode only. ---
  uint64_t EvictedTxns = 0;
  uint64_t Compactions = 0;
  /// Unresolved reads dropped because their reader was evicted.
  uint64_t EvictedUnresolvedReads = 0;
  /// Live reads whose writer was evicted (excluded from checking).
  uint64_t EvictedWriterReads = 0;
  /// Transactions evicted because they aged past WindowAgeTicks.
  uint64_t AgeEvictedTxns = 0;
  /// Open transactions force-aborted after ForceAbortOpenTicks.
  uint64_t ForcedAborts = 0;
  /// Cumulative wall-clock time spent inside checking passes, in
  /// microseconds. Host-local timing, not part of the monitor's logical
  /// state: it is excluded from checkpoints (saveState stays canonical for
  /// a given state) and from the end-of-run summary (which must be
  /// byte-identical across resumed runs). Consumed by the periodic stats
  /// line (`awdit monitor --stats-interval`) and the server's /metrics.
  uint64_t FlushMicros = 0;
};

/// A streaming online-checking session. Not thread-safe: one monitor per
/// ingestion thread (shard streams across monitors for parallelism).
///
/// Typical usage:
/// \code
///   JsonLinesSink Sink(std::cout);
///   MonitorOptions Options;
///   Options.Level = IsolationLevel::CausalConsistency;
///   Options.CheckIntervalTxns = 256;
///   Monitor M(Options, &Sink);
///   SessionId S = M.addSession();
///   TxnId T = M.beginTxn(S);
///   M.write(T, /*K=*/1, /*V=*/10);
///   M.commit(T);                // violations stream to Sink as detected
///   CheckReport Report = M.finalize();
/// \endcode
///
/// Transaction ids handed out by beginTxn() are assigned monotonically
/// over the stream and never renumbered: the live window, the saturation
/// engine and every reported violation use the same ids, and windowed
/// eviction only advances the first live id.
///
/// Session order (so) is the order of commit() calls within a session.
/// When transactions of one session are fed strictly sequentially — the
/// case for every database session log, and for replay() — this coincides
/// with HistoryBuilder's begin-order semantics.
class Monitor {
public:
  explicit Monitor(const MonitorOptions &Options = {},
                   ViolationSink *Sink = nullptr);

  // --- Ingestion (mirrors HistoryBuilder). ---

  /// Adds a new, empty session and returns its id.
  SessionId addSession();

  /// Opens a new transaction in session \p S; returns its id.
  TxnId beginTxn(SessionId S);

  /// Appends a read of (\p K, \p V) to the open transaction \p T.
  void read(TxnId T, Key K, Value V);

  /// Appends a write of (\p K, \p V) to the open transaction \p T.
  /// Returns false (and records errorText()) if (key, value) was already
  /// written — the unique-value model invariant; the first write wins.
  bool write(TxnId T, Key K, Value V);

  /// Appends an arbitrary operation; returns false as write() does.
  bool append(TxnId T, Operation Op);

  /// Commits the open transaction \p T. Triggers an incremental checking
  /// pass when CheckIntervalTxns commits have accumulated.
  void commit(TxnId T);

  /// Aborts the open transaction \p T.
  void abortTxn(TxnId T);

  /// Advances the stream clock to \p Now (monotonic; stale values are
  /// ignored). Ticks are whatever unit the stream reports — seconds,
  /// milliseconds, a logical epoch. Enables the WindowAgeTicks and
  /// ForceAbortOpenTicks policies.
  void advanceTime(uint64_t Now);

  /// Feeds a complete history through the ingestion API in transaction-id
  /// order. A fresh monitor assigns the same ids the history uses.
  void replay(const History &H);

  /// Bulk-adopts a finalized history as the monitor's initial state:
  /// the already-resolved transactions are taken over wholesale instead
  /// of being re-resolved operation by operation. Requires a pristine
  /// monitor. Checkpoints record an adopted prefix (the MAdopted chunk).
  /// Semantically it matches replay() with two caveats: adopted thin-air
  /// reads are final (later streamed writes do not retroactively resolve
  /// them), and adopted transactions are checked at the first flush after
  /// adoption (a check() call, the checking cadence, or finalize()) rather
  /// than one by one.
  void adopt(const History &H);

  /// Moves the fully derived ingested history out of the monitor without
  /// running any check, ending the session. Every transaction must be
  /// closed and nothing may have been evicted. This makes the monitor
  /// double as an incremental HistoryBuilder: parseTextHistory() is a
  /// feed-then-take wrapper over the streaming parser, so the native
  /// grammar exists in exactly one place.
  History takeHistory();

  // --- Checking. ---

  /// Runs an incremental checking pass now (also triggered automatically
  /// every CheckIntervalTxns commits). Returns true iff no violation has
  /// been detected so far in the stream.
  bool check();

  /// Completes the session: still-open transactions are treated as
  /// aborted, the final checking pass runs, and every not-yet-reported
  /// violation is delivered to the sink. When nothing was evicted the
  /// returned report is the canonical one-shot result over the whole
  /// ingested history — bit-identical to the historical checkIsolation()
  /// (enforced by tests/test_monitor.cpp). In windowed mode (after
  /// evictions) the report instead aggregates the violations streamed
  /// over the whole run, capped at MaxWindowedReportViolations entries
  /// (the sink saw every one as it happened; ReportedViolations has the
  /// true count). May be called once.
  CheckReport finalize();

  // --- Introspection. ---

  /// Current statistics (LiveTxns/InferredEdges/UnresolvedReads refreshed
  /// on access).
  const MonitorStats &stats();

  /// True once any violation has been reported.
  bool hadViolation() const { return AnyViolation; }

  /// Checking passes run so far (cheap; the sharded ingest pipeline polls
  /// this after every applied event to detect flush boundaries).
  uint64_t flushCount() const { return Stats.Flushes; }

  /// Routes flush-time CC saturation speculation to \p Pool (non-owning;
  /// nullptr disables). The sharded ingest pipeline installs its worker
  /// pool here so the checking half of each flush runs speculatively in
  /// parallel; verdicts, violation streams, and summaries stay
  /// bit-identical to the sequential path (the merge adopts a speculative
  /// delta only when its inputs provably did not change). The pool must
  /// outlive the monitor or be detached with nullptr first.
  void setSpeculation(ThreadPool *Pool, size_t MinBatch = 16) {
    Saturation.setSpeculation(Pool, MinBatch);
  }

  /// Speculation telemetry (host-local: varies with thread count, so it is
  /// excluded from checkpoints and summaries — those must stay
  /// byte-identical across `--threads`).
  uint64_t speculationAdoptedRows() const {
    return Saturation.specAdoptedRows();
  }
  uint64_t speculationRecomputedRows() const {
    return Saturation.specRecomputedRows();
  }

  /// Host-local flush latency telemetry (obs/histogram.h). Like
  /// FlushMicros it is wall-clock state: excluded from checkpoints and
  /// summaries, consumed by `STATS deep`, the periodic stats line's
  /// p50/p99, and the server's per-stream /metrics breakdown. The
  /// histogram carries one sample per checking pass.
  const obs::LatencyHistogram &flushLatency() const { return FlushHist; }
  /// Cumulative micros per flush phase, indexed by obs::FlushPhase.
  const uint64_t *flushPhaseMicros() const { return PhaseMicros; }

  /// Set when an ingestion-level error occurred (duplicate write).
  const std::string &errorText() const { return ErrText; }

  /// Number of sessions added so far.
  size_t numSessions() const { return Live.Sessions.size(); }

  /// Distinct keys the live window's operations touch (its
  /// History::numKeys(); eviction releases the keys it drops).
  size_t numLiveKeys() const { return Live.numKeys(); }

  /// A short label for a monitor transaction id, e.g. "t12(s3#4)" or
  /// "t12(evicted)".
  std::string txnLabel(TxnId MonitorId) const;

  /// Renders a violation as a one-line description.
  std::string describe(const Violation &V) const;

  // --- Persistent checkpoints (checker/checkpoint.h). ---

  /// Serializes the complete monitoring state — live window, wr
  /// resolution, saturation engine, exactly-once delivery state, stats —
  /// so a restored monitor continues the stream emitting exactly the
  /// violations a never-stopped monitor would have emitted from this
  /// point on. Unordered containers are written in sorted order, so the
  /// bytes are canonical for a given state. Must not be finalized.
  void saveState(ByteWriter &W) const;

  /// Restores saveState() bytes into a freshly constructed monitor (same
  /// MonitorOptions, in particular the same Level). Returns false with a
  /// message in \p Err on corrupted or incompatible input; the monitor is
  /// unusable afterwards.
  bool loadState(ByteReader &R, std::string *Err);

  /// Chunked serialization for store-backed (format-v2) checkpoints: the
  /// same logical state as saveState, but transaction ids and so-indices
  /// are written as they are in memory — never rebased by windowed
  /// eviction — and \p Marks receives the chunk boundaries (strictly
  /// increasing ids; see support/serialize.h). \p IdBase and \p SoBase
  /// receive the first live id and per-session so position, which the
  /// store keeps in the root's meta blob for a restore to check. Unchanged
  /// state re-serializes into byte-identical chunks, which is what makes a
  /// store commit O(delta).
  void saveStateChunked(std::string &Bytes, std::vector<ChunkMark> &Marks,
                        uint32_t &IdBase,
                        std::vector<uint64_t> &SoBase) const;

  /// Restores reassembled saveStateChunked() bytes (chunks concatenated in
  /// ascending id order) whose window starts at \p IdBase / \p SoBase.
  bool loadStateChunked(std::string_view Bytes, uint32_t IdBase,
                        const std::vector<uint64_t> &SoBase,
                        std::string *Err);

private:
  /// Shared serialization body of the v1 (\p Local: ids relative to the
  /// window base, so positions to each session's first live one) and
  /// chunked (as in memory) layouts. A v1 load adds \p IdBase and
  /// \p SoBase back; 0 and null only parse the bytes.
  void saveStateImpl(ByteWriter &W, bool Local) const;
  bool loadStateImpl(ByteReader &R, std::string *Err, bool Local,
                     TxnId IdBase, const std::vector<uint32_t> *SoBase);

  struct TxnMeta {
    bool Open = true;
    /// True while some read of this (closed) transaction resolves to a
    /// still-open writer; checking is deferred until all writers close.
    bool Deferred = false;
    /// True while this closed transaction's derived indices are missing
    /// or out of date: it closed without deriving (no checking cadence),
    /// or a late write resolved one of its parked reads, or a writer it
    /// reads from closed. The next pass (or takeHistory/finalize) derives
    /// exactly these; every other dirty transaction keeps its close-time
    /// derivation. Not serialized: a restored monitor marks every dirty
    /// transaction stale.
    bool Stale = false;
    /// Stream time of the last lifecycle event: begin while open, close
    /// once closed. Drives the age horizon and the force-abort policy.
    uint64_t Ts = 0;
    /// Eviction bookkeeping, allocated on first write through links()
    /// (only windowed monitors write it).
    struct Links {
      /// The reads resolved to this transaction, as (reader, index into
      /// its Reads); may repeat. Never serialized (rebuilt on load).
      /// Eviction masks exactly these reads.
      std::vector<std::pair<TxnId, uint32_t>> Readers;
      /// Reads whose writer was evicted, as (op index, original writer id
      /// << 32 | writer op), sorted: never checked or reported as
      /// thin-air. The chunked checkpoint writes the original writer so
      /// the read's bytes do not change (a v1 restore records
      /// UnknownMaskedWriter).
      std::vector<std::pair<uint32_t, uint64_t>> Masked;
    };
    std::unique_ptr<Links> L;
    Links &links() {
      if (!L)
        L = std::make_unique<Links>();
      return *L;
    }
    const Links &links() const {
      static const Links None;
      return L ? *L : None;
    }
  };

  /// The original writer of \p Id's masked read at \p OpIdx, or null if
  /// that read is not masked.
  const uint64_t *maskedWriter(TxnId Id, uint32_t OpIdx) const;

  /// The transaction and metadata of live id \p T.
  Transaction &txnRef(TxnId T) { return Live.Txns[slot(T)]; }
  TxnMeta &meta(TxnId T) { return Meta[slot(T)]; }
  const TxnMeta &meta(TxnId T) const { return Meta[slot(T)]; }
  size_t slot(TxnId T) const {
    AWDIT_ASSERT(T >= Base && T < Live.txnEnd(),
                 "Monitor: unknown or evicted transaction id");
    return T - Live.TxnBase;
  }

  /// Counts an operation on \p K into the window's key refcounts.
  void countKey(Key K);
  /// Records that \p Reader's read \p ReadIdx resolved to \p Writer.
  void noteReader(TxnId Writer, TxnId Reader, uint32_t ReadIdx);
  /// Rebuilds the key refcounts and reader index of the whole window.
  void indexWindow();

  /// Closes \p Id (commit or abort), wakes waiting readers, and schedules
  /// checking. With a checking cadence it also resolves \p Id's reads now,
  /// so the pass that checks it only re-derives what changed since;
  /// without one, nothing reads the derived state before the next pass or
  /// takeHistory(), which derive it once, against every write that
  /// arrived meanwhile.
  void closeTxn(TxnId Id, bool Committed);

  /// Marks the closed \p Id for (re-)derivation and checking.
  void markStale(TxnId Id);

  /// Recomputes \p Id's resolved reads and derived indices from its ops
  /// against the current write index. Returns false when some read
  /// resolves to a still-open writer (checking must wait).
  bool deriveTxn(TxnId Id);

  /// Materializes the deferred write index of an adopted history before
  /// any new ingestion resolves against it, and queues the adopted
  /// transactions as the engine's first delta.
  void ensureAdoptedIndex();

  /// Rebuilds \p Id's ExtReads/ReadFroms from its (resolved) Reads: the
  /// external reads are exactly those from a distinct, closed, committed
  /// writer. Shared by deriveTxn, evict and the chunked loader.
  void classifyExternalReads(TxnId Id);

  /// One incremental checking pass: force-abort hung transactions, derive
  /// dirty transactions, run the read-level checks over the delta, hand
  /// the delta to the saturation engine (which propagates affected facts
  /// and cycle-checks on edge insertion), report new violations, and
  /// evict if a window horizon is exceeded.
  void flush(bool Final);

  /// Applies the ForceAbortOpenTicks policy: aborts open transactions
  /// whose age in stream ticks exceeds the limit.
  void forceAbortHung();

  /// Delivers \p V if not yet reported. Returns true when it was
  /// delivered.
  bool emitViolation(Violation V);

  /// Fingerprint for exactly-once delivery.
  static std::string fingerprint(const Violation &V);

  /// Evicts the transactions [Base, \p NewBase) from every structure, in
  /// time proportional to what they own; survivors keep their ids.
  void evict(TxnId NewBase);

  /// Applies the window horizons; called at the end of a flush.
  void maybeEvict();

  MonitorOptions Opts;
  ViolationSink *Sink;

  /// The live window, maintained directly as a History so the checkers and
  /// kernels run on it unchanged. Its transactions are the ids
  /// [Base, Live.txnEnd()); the slots of evicted ones below Base are
  /// released once they reach a quarter of the live ones. Live.SoBase
  /// holds each session's first live so position (its evicted so-prefix
  /// length).
  History Live;
  TxnId Base = 0;
  /// Per-transaction monitor state, parallel to Live's slots.
  std::vector<TxnMeta> Meta;
  /// Operations per key in the window; its size is History::KeyCount.
  KeyRefCounts KeyRefs;

  /// The incremental saturation engine: persisted happens-before facts,
  /// per-key write index, refcounted source-tagged edges, dynamic
  /// topological order.
  SaturationState Saturation;
  /// Adopted transactions pending their first hand-off to the engine.
  std::vector<TxnId> AdoptedReady;

  /// Incremental wr resolution.
  WriteSiteIndex Writes;
  /// Reads of closed transactions with no write site yet: (key, value) ->
  /// readers. Retroactively resolved when the write arrives.
  std::unordered_map<KeyValue, std::vector<std::pair<TxnId, uint32_t>>,
                     KeyValueHash>
      PendingReads;
  /// Readers to re-derive when an open writer closes.
  std::unordered_map<TxnId, std::vector<TxnId>> WaitersOnClose;
  /// TxnMeta::Masked value of a mask restored from a v1 checkpoint, whose
  /// bytes never held the original writer.
  static constexpr uint64_t UnknownMaskedWriter =
      (static_cast<uint64_t>(NoTxn) << 32) | NoOp;

  /// Closed transactions not yet handed to the checking pass (newly
  /// closed, deferred on an open writer, or retroactively re-resolved);
  /// TxnMeta::Stale says which of them need deriving first. Ordered for
  /// deterministic flushes.
  std::set<TxnId> Dirty;

  /// Currently open transactions, for the force-abort scan.
  std::set<TxnId> OpenTxns;
  /// Ids closed by the force-abort policy while their session
  /// still holds the handle: later operations and the eventual
  /// commit/abort on them are dropped. Never pruned (one entry per
  /// forced abort — the hung-session pathology this bounds is rare).
  std::unordered_set<TxnId> ForceAbortedIds;

  /// Cap on the windowed finalize report (the sink remains complete).
  static constexpr size_t MaxWindowedReportViolations = 65536;

  /// Exactly-once delivery state.
  /// Fingerprints accumulate one small string per reported violation for
  /// the lifetime of the session; cycle-txn ids are pruned at eviction.
  std::unordered_set<std::string> ReportedFp;
  std::unordered_set<TxnId> ReportedCycleTxns;
  /// Delivered violations (the windowed finalize report),
  /// capped at MaxWindowedReportViolations.
  std::vector<Violation> StreamReported;

  /// Reused buffers of deriveTxn and the per-flush read-level checks.
  std::vector<Key> KeyScratch;
  std::vector<ReadInfo> PrevReads;
  ReadCheckScratch ReadScratch;

  MonitorStats Stats;
  /// Host-local flush telemetry (see flushLatency()); never serialized.
  obs::LatencyHistogram FlushHist;
  uint64_t PhaseMicros[obs::NumFlushPhases] = {};
  size_t CommitsSinceFlush = 0;
  /// Latest stream timestamp seen by advanceTime().
  uint64_t CurrentTime = 0;
  bool HasTime = false;
  bool AnyViolation = false;
  bool Finalized = false;
  /// Set by adopt(): the write index / key universe of the adopted prefix
  /// is materialized lazily, only if streaming or checking continues
  /// afterwards.
  bool AdoptedIndexPending = false;
  std::string ErrText;
};

} // namespace awdit

#endif // AWDIT_CHECKER_MONITOR_H
