//===- checker/saturation_state.h - Incremental saturation engine -*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental, delta-driven saturation engine shared by the three
/// checking paths:
///
///  - detail::checkOneShot() runs it as a single cold-start delta over a
///    complete history (the batch kernels of saturation_impl.h, verbatim);
///  - the parallel engine (checker/parallel.h) has its shard workers feed
///    inferred edges into one merged state, each through its own BatchSink;
///  - the streaming Monitor (checker/monitor.h) drives true per-flush
///    deltas: the state persists the derived happens-before rows, the
///    per-key write index, and the refcounted source-tagged edge set
///    across flushes, so each pass only propagates the consequences of
///    newly committed or retroactively re-resolved transactions instead
///    of re-scanning the whole live window.
///
/// In streaming mode the commit relation co' is kept topologically ordered
/// with a Pearce–Kelly dynamic order (graph/incremental_topo.h): an edge
/// insertion that would close a cycle is reported as a violation with the
/// offending path extracted on the spot — no per-flush SCC pass — and the
/// edge is quarantined so the order stays valid. The canonical verdict of
/// a completed check still comes from finalizeAcyclic(), which rebuilds
/// the commit graph once and runs the exact same SCC/witness extraction as
/// the historical batch checkers, keeping verdicts, violation lists, and
/// witnesses bit-identical to them.
///
/// Every inferred or base edge is tagged with the unit of work that
/// produced it (an RC transaction, an RA session, a CC reader, a reader's
/// wr set, a session's so chain), so re-running a unit replaces exactly
/// its contribution. Ids and so positions are never rebased: eviction frees
/// what the evicted transactions own in time proportional to it, and
/// surviving lists keep entries with an evicted endpoint as tombstones —
/// so old sources' bytes stay stable and checkpoints stay O(delta).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_SATURATION_STATE_H
#define AWDIT_CHECKER_SATURATION_STATE_H

#include "checker/check_rc.h"
#include "checker/commit_graph.h"
#include "checker/isolation_level.h"
#include "checker/saturation_impl.h"
#include "checker/violation.h"
#include "graph/incremental_topo.h"
#include "history/history.h"
#include "support/epoch_snapshot.h"
#include "support/packed_edge_map.h"

#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace awdit {

class ByteWriter;
class ByteReader;
class ThreadPool;

/// The incremental saturation engine. One instance per checking session
/// (a Monitor, one one-shot check, or one parallel check). Not thread-safe
/// except for BatchSinks.
class SaturationState {
public:
  enum class Mode : uint8_t {
    /// One cold-start delta (or shard-fed batches): edges are only
    /// collected; no dynamic order is maintained and the verdict comes
    /// from finalizeAcyclic()'s canonical pass.
    Batch,
    /// Streaming deltas: persisted facts, dynamic topological order, and
    /// cycle extraction on edge insertion.
    Streaming,
  };

  SaturationState(IsolationLevel Level, Mode M)
      : Level(Level), EngineMode(M) {}

  // --- Structure growth (streaming). ---

  void addSession() { ++NumSessions; }

  // --- Streaming delta pass. ---

  /// One incremental pass. \p Ready lists the ids of committed
  /// transactions that are newly closed or were retroactively re-resolved
  /// since the last pass, ascending. Reads \p H (the live window) for
  /// operations, sessions, and derived per-transaction indices; appends
  /// any cycle violation discovered during edge insertion to \p Out.
  void flushDelta(const History &H, const std::vector<TxnId> &Ready,
                  std::vector<Violation> &Out);

  // --- Speculative parallel saturation (streaming, CC only). ---

  /// Enables speculative offload of the CC happens-before/inference delta
  /// to \p Pool's workers (non-owning; nullptr disables). At each flush
  /// with at least \p MinBatch ready transactions, workers compute
  /// speculative rows and reader inferences against a read-only snapshot
  /// of the pre-merge state, and the sequential merge adopts a result only
  /// when EpochTracker proves its inputs unchanged — so the output stays
  /// bit-identical to the sequential path at every thread count, and the
  /// speculation never touches checkpoints (it is transient per-flush
  /// state). The pool must outlive the state or be reset to nullptr first.
  void setSpeculation(ThreadPool *Pool, size_t MinBatch = 16) {
    SpecPool = Pool;
    SpecMinBatch = MinBatch;
  }

  /// Rows whose speculative result was adopted verbatim at the merge /
  /// rows that fell back to sequential re-derivation. Host-local telemetry
  /// (varies with thread count): never serialized, never in summaries.
  uint64_t specAdoptedRows() const { return SpecAdoptedRows; }
  uint64_t specRecomputedRows() const { return SpecRecomputedRows; }
  /// Reader-inference edge sets adopted from speculation at the merge.
  uint64_t specAdoptedEdgeSets() const { return SpecAdoptedEdgeSets; }

  /// Host-local wall-clock spent inside the current/last flushDelta, in
  /// nanoseconds, split by phase. DeltaBuild/Speculate/Merge partition
  /// the pass; Pk overlaps them (it accumulates inside the edge-insertion
  /// / topological-order maintenance the other phases call into). Like
  /// the speculation counters this is telemetry only: never serialized,
  /// never part of a verdict or summary.
  struct FlushPhaseNanos {
    uint64_t DeltaBuild = 0;
    uint64_t Speculate = 0;
    uint64_t Merge = 0;
    uint64_t Pk = 0;
  };

  /// Returns and resets the phase accumulators — the Monitor drains them
  /// once per flush into the observability histograms (obs/histogram.h).
  FlushPhaseNanos takeFlushPhaseNanos() {
    FlushPhaseNanos R = PhaseNs;
    PhaseNs = FlushPhaseNanos();
    return R;
  }

  // --- Batch feeds. ---

  /// Runs the batch saturation kernels over the whole history — the
  /// single cold-start delta of the one-shot path. Level RC/RA/CC only;
  /// read-level axioms are the caller's job (they precede saturation in
  /// every algorithm).
  void coldStart(const History &H);

  /// Batch-mode inferred-edge sink, called as Infer(From, To) by the batch
  /// kernels: one per worker (or one for coldStart()). It drops exact
  /// repeats through a small direct-mapped filter — an edge is dropped only
  /// when its slot already holds that same edge, so every distinct edge is
  /// kept at least once and the sort + unique stays the authority. When
  /// destroyed it sorts and uniques its buffer on its own thread and hands
  /// it to the state; finalizeAcyclic() merges the sorted runs. Sinks of
  /// one state may live on different threads.
  class BatchSink {
  public:
    explicit BatchSink(SaturationState &State)
        : State(State), Filter(size_t(1) << FilterBits, EmptySlot) {}
    BatchSink(const BatchSink &) = delete;
    BatchSink &operator=(const BatchSink &) = delete;
    ~BatchSink();

    void operator()(TxnId From, TxnId To) {
      AWDIT_ASSERT(From != To, "inferred self edge");
      uint64_t Packed = CommitGraph::packEdge(From, To);
      uint64_t &Slot = Filter[slotOf(Packed)];
      if (Slot == Packed)
        return;
      Slot = Packed;
      Buf.push_back(Packed);
    }

    /// The filter slot of a packed edge (multiplicative hashing).
    static size_t slotOf(uint64_t Packed) {
      return (Packed * 0x9E3779B97F4A7C15ull) >> (64 - FilterBits);
    }

  private:
    static constexpr unsigned FilterBits = 14;
    /// Never a packed edge: it would be a self edge.
    static constexpr uint64_t EmptySlot = ~uint64_t(0);
    SaturationState &State;
    std::vector<uint64_t> Filter;
    std::vector<uint64_t> Buf;
  };

  /// Batch CC helper: builds the base so ∪ wr commit graph of \p H —
  /// cached so finalizeAcyclic() reuses it instead of rebuilding — and
  /// returns a topological order of it, or nullopt (setting baseCyclic())
  /// when so ∪ wr is cyclic. \p H must be the same history later passed
  /// to finalizeAcyclic().
  std::optional<std::vector<uint32_t>> computeBaseOrder(const History &H);

  /// Canonical verdict over the complete history: rebuilds the commit
  /// graph from \p H, merges every inferred edge collected so far
  /// (canonicalized: sorted, deduplicated), and runs the same SCC pass and
  /// witness extraction as the batch checkers. Bit-identical to them for
  /// identical edge sets.
  bool finalizeAcyclic(const History &H, std::vector<Violation> &Out,
                       size_t MaxWitnesses, SaturationStats *Stats);

  // --- Eviction (streaming). ---

  /// Evicts the transactions below \p NewBase from every persisted
  /// structure, in time proportional to what they own. Survivors keep
  /// their ids and so positions. Must run while \p H still holds the
  /// evicted transactions (the caller drops them afterwards).
  void evict(const History &H, TxnId NewBase);

  // --- Introspection. ---

  /// Distinct live inferred (non so/wr) co' edges.
  size_t numInferredEdges() const { return InferredDistinct; }
  /// Distinct live edges of the maintained commit relation (streaming).
  size_t numGraphEdges() const {
    return Order.numEdges() + Quarantined.size();
  }
  /// True once the base so ∪ wr relation itself closed a cycle (every
  /// level is violated; CC saturation stops — happens-before is
  /// undefined, exactly as in the batch checker).
  bool baseCyclic() const { return BaseCyclic; }

  // --- Checkpoint support (streaming; checker/checkpoint.h). ---

  /// Serializes every persisted streaming fact — edge refcounts, source
  /// lists, the dynamic order (verbatim: its internal positions steer
  /// later witness extraction), happens-before rows, writer index, RA
  /// frontiers. Unordered containers are dumped in sorted-key order so the
  /// bytes are canonical; list-valued state keeps its order verbatim.
  /// A non-null \p LocalSoBase writes the window-local v1 layout (ids
  /// relative to the window base, so positions to (*LocalSoBase)[session]);
  /// otherwise ids and positions are written as in memory (chunked v2).
  void saveState(ByteWriter &W,
                 const std::vector<uint32_t> *LocalSoBase = nullptr) const;

  /// Restores a freshly constructed streaming state (same Level) from
  /// saveState() bytes. \p WindowBase is the id of the first live
  /// transaction (the monitor's eviction count); \p LocalSoBase must be
  /// what the bytes were saved with. Returns false (with \p Err set) on
  /// corrupted or level-mismatched input.
  bool loadState(ByteReader &R, std::string *Err, uint32_t WindowBase,
                 const std::vector<uint32_t> *LocalSoBase = nullptr);

private:
  // Source tags: the unit of work that contributed an edge. Re-running a
  // unit replaces exactly its contribution.
  static uint64_t rcSource(TxnId L) { return L; }
  static uint64_t raSource(SessionId S) { return (uint64_t(1) << 32) | S; }
  static uint64_t ccSource(TxnId L) { return (uint64_t(2) << 32) | L; }
  static uint64_t wrSource(TxnId L) { return (uint64_t(3) << 32) | L; }
  static uint64_t soSource(SessionId S) { return (uint64_t(4) << 32) | S; }
  static bool isPerTxnSource(uint64_t Source) {
    uint64_t Tag = Source >> 32;
    return Tag == 0 || Tag == 2 || Tag == 3;
  }

  /// True when either endpoint of a packed edge was evicted — the entry
  /// is a tombstone every consumer skips.
  bool deadPacked(uint64_t Packed) const {
    return static_cast<uint32_t>(Packed >> 32) < EvictedBase ||
           static_cast<uint32_t>(Packed) < EvictedBase;
  }

  /// Storage index of transaction \p T in the per-transaction arrays.
  size_t slot(TxnId T) const { return T - SlotBase; }
  uint32_t *hbRow(TxnId T) { return &HbRows[slot(T) * HbStride]; }
  const uint32_t *hbRow(TxnId T) const { return &HbRows[slot(T) * HbStride]; }

  /// Row equality as the inference sees it: a frontier at or below its
  /// session's first live so position reaches no live transaction, so all
  /// such values are equal (to "none").
  bool sameFrontiers(const History &H, const uint32_t *A,
                     const uint32_t *B) const;

  /// Reference counts of one packed edge, split by provenance: base
  /// (so/wr) references keep the edge structural; inferred references come
  /// from the saturation kernels.
  struct EdgeRefs {
    uint32_t Base = 0;
    uint32_t Inferred = 0;
  };

  /// Persistent per-session incremental RA saturation state.
  struct RaSessionState {
    detail::RaScratch Scratch;
    /// First unprocessed position in the session's so list.
    size_t NextSo = 0;
    /// Set when retroactive re-resolution invalidated already-processed
    /// positions; the whole (windowed) session is re-run at next flush.
    bool NeedsFullRerun = false;
  };

  /// Per-key, per-writing-session so-ordered writer lists (Algorithm 3's
  /// Writes index), persisted and appended incrementally.
  struct KeyWriters {
    std::vector<SessionId> Sessions;
    std::vector<std::vector<detail::CcWriterEntry>> Lists;
  };

  void ensureSizes(const History &H);

  // Edge bookkeeping.
  void addSourceEdges(const History &H, uint64_t Source, bool IsBase,
                      const std::vector<uint64_t> &Edges,
                      std::vector<Violation> *Out);
  void clearSource(uint64_t Source, bool IsBase);
  void insertLive(const History &H, uint64_t Packed, bool IsBase,
                  std::vector<Violation> *Out);
  void removeLive(uint64_t Packed, bool IsBase);
  void retryQuarantined(const History &H);
  /// Clears BaseCyclic (scheduling a full happens-before recompute) once
  /// no quarantined edge with a base reference remains. Shared by the
  /// flush-time retry and eviction.
  void maybeClearBaseCyclic();

  /// True iff \p To reaches \p From using only edges with a base
  /// reference (a so ∪ wr path). Decides CausalityCycle vs a mixed cycle
  /// whose base edge can stay live by quarantining an inferred edge.
  bool baseReaches(uint32_t SrcNode, uint32_t DstNode) const;

  Violation makeCycleViolation(const History &H, TxnId From, TxnId To,
                               const std::vector<uint32_t> &Path) const;
  EdgeKind classifyEdge(const History &H, TxnId From, TxnId To) const;

  // CC incremental pieces.
  void appendWriterEntries(const History &H, TxnId L);
  bool recomputeHbRow(const History &H, TxnId L);
  void runCcReader(const History &H, TxnId L,
                   std::vector<uint64_t> &Edges) const;
  /// The row-parameterized core of runCcReader: the per-key inference over
  /// an explicit happens-before row. Pure; speculation workers call it
  /// against their speculative rows while the writer index is quiescent.
  void runCcReaderRow(const History &H, TxnId L, const uint32_t *Row,
                      std::vector<uint64_t> &Edges) const;
  void setReaderWrEdges(const History &H, TxnId L,
                        std::vector<Violation> *Out);

  // Speculative parallel CC saturation. One CcSpeculation per ready
  // transaction of the flush; all state below is transient per-flush.
  struct CcSpeculation {
    /// The speculative happens-before row (HbStride entries).
    std::vector<uint32_t> Row;
    /// Speculative reader inferences over Row, sorted and deduplicated —
    /// exactly what the sequential path would derive from an equal row.
    std::vector<uint64_t> Edges;
    /// Rows read from the pre-merge snapshot; the result is stale if any
    /// of them was overwritten (epoch-stamped) before this merge step.
    std::vector<TxnId> ExternalInputs;
    /// Sibling speculations (same worker batch) whose rows were chained;
    /// valid only if each merged to exactly its speculative value.
    std::vector<TxnId> BatchInputs;
    /// Set during the merge: the row merged to exactly Row, so Edges is
    /// the sequential result and downstream chains stay valid.
    bool Matched = false;
  };
  using SpecMap = std::unordered_map<TxnId, CcSpeculation>;

  /// The speculation phase: partitions \p Ready by session, computes
  /// speculative rows (chained within a session) and reader inferences on
  /// the pool, against the quiescent pre-merge state. Runs strictly
  /// between the base-edge/writer-index loop and the merge.
  void speculateCc(const History &H, const std::vector<TxnId> &Ready,
                   SpecMap &Spec);
  /// The sequential merge step for one row: adopts the validated
  /// speculative row or falls back to recomputeHbRow. Returns whether the
  /// persisted row changed; stamps RowEpochs on change.
  bool mergeHbRow(const History &H, TxnId L, SpecMap *Spec);
  void propagateHappensBefore(const History &H,
                              const std::vector<TxnId> &Ready,
                              std::vector<TxnId> &ChangedOut, SpecMap *Spec);

  const IsolationLevel Level;
  const Mode EngineMode;
  size_t NumSessions = 0;
  bool BaseCyclic = false;
  /// Set when evictions broke a base cycle: every live row is recomputed
  /// at the next flush.
  bool NeedsFullHbRecompute = false;

  // --- Persistent streaming state. ---

  /// The dynamically ordered commit relation (distinct live edges).
  IncrementalTopoOrder Order;
  /// Refcounts of the persisted edge set, keyed by the packed (src, dst)
  /// pair. A flat open-addressing table: every flush hits this once or
  /// twice per delta edge, which made node-based hashing the dominant
  /// per-flush cost (ROADMAP follow-up from PR 3).
  PackedEdgeMap<EdgeRefs> Edges;
  /// Source-tagged edge lists; entries with an evicted endpoint are
  /// tombstones (deadPacked()). A per-transaction list is immutable once
  /// written; per-session lists (RA contributions, so chains) are swept
  /// once per window's worth of evictions. Edges is always the filtered
  /// refcount image of these lists, so the chunked checkpoint derives it.
  std::unordered_map<uint64_t, std::vector<uint64_t>> BySource;
  /// Id of the first live transaction (total evicted count): the lazy
  /// eviction filter.
  uint32_t EvictedBase = 0;
  /// Id of slot 0 of Processed, ReadersOf, HbRows and RowEpochs; evicted
  /// slots are released once they reach a quarter of the live ones.
  uint32_t SlotBase = 0;
  /// Edges with live references that are kept out of the order because
  /// inserting them closed a cycle (reported when first quarantined).
  std::unordered_set<uint64_t> Quarantined;
  size_t InferredDistinct = 0;

  /// First-processing flag per transaction (so-chain edge added, writer
  /// entries appended).
  std::vector<uint8_t> Processed;
  /// Readers currently holding a wr edge from each transaction, for
  /// happens-before dirty propagation. Evicted readers are skipped rather
  /// than removed.
  std::vector<std::vector<TxnId>> ReadersOf;

  /// Persisted exclusive happens-before clock rows (global so positions
  /// + 1), row-major with stride HbStride (grown as sessions are added).
  std::vector<uint32_t> HbRows;
  size_t HbStride = 0;
  std::vector<uint32_t> TmpRow;

  std::unordered_map<Key, KeyWriters> Writers;
  std::vector<RaSessionState> RaStates;
  detail::RcScratch RcScratchState;

  // --- Speculation (transient; never serialized). ---

  /// Non-owning executor for the speculation phase; nullptr = sequential.
  ThreadPool *SpecPool = nullptr;
  size_t SpecMinBatch = 16;
  /// Which happens-before rows the current merge has overwritten — the
  /// validation oracle for adopting speculative results.
  EpochTracker RowEpochs;
  uint64_t SpecAdoptedRows = 0;
  uint64_t SpecRecomputedRows = 0;
  uint64_t SpecAdoptedEdgeSets = 0;
  FlushPhaseNanos PhaseNs;

  // --- Batch-mode edge collection. ---

  /// Buffers handed over by destroyed BatchSinks.
  std::mutex SinkBufsMutex;
  std::vector<std::vector<uint64_t>> SinkBufs;
  /// Base commit graph built by computeBaseOrder(), reused by
  /// finalizeAcyclic() so the CC paths construct it only once.
  std::optional<CommitGraph> CachedBase;
};

} // namespace awdit

#endif // AWDIT_CHECKER_SATURATION_STATE_H
