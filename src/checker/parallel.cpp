//===- checker/parallel.cpp - Sharded parallel checking engine --------------===//

#include "checker/parallel.h"

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/read_consistency.h"
#include "checker/saturation_impl.h"
#include "checker/saturation_state.h"
#include "history/key_shard_index.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <optional>

using namespace awdit;

namespace {

/// Transactions per chunk of the range-partitioned passes. Coarse enough
/// that per-chunk scratch allocation and the batch flush are noise.
constexpr size_t TxnGrain = 2048;

/// Runs a violation-producing range pass over transaction chunks and
/// concatenates the per-chunk outputs in chunk order, reproducing the
/// sequential append order exactly. Returns true iff no chunk produced a
/// violation.
template <typename RangePass>
bool runChunkedViolationPass(const History &H, ThreadPool &Pool,
                             std::vector<Violation> &Out, RangePass Pass) {
  size_t N = H.numTxns();
  if (N == 0)
    return true;
  size_t NumChunks = (N + TxnGrain - 1) / TxnGrain;
  std::vector<std::vector<Violation>> PerChunk(NumChunks);
  Pool.parallelFor(0, N, TxnGrain, [&](size_t Begin, size_t End) {
    Pass(static_cast<TxnId>(Begin), static_cast<TxnId>(End),
         PerChunk[Begin / TxnGrain]);
  });
  size_t Before = Out.size();
  for (std::vector<Violation> &Chunk : PerChunk)
    Out.insert(Out.end(), std::make_move_iterator(Chunk.begin()),
               std::make_move_iterator(Chunk.end()));
  return Out.size() == Before;
}

/// The sharded CC last-writer inference over a filled happens-before
/// matrix, feeding \p Merged through one BatchSink per worker chunk.
void inferCcSharded(const History &H, const HappensBefore &HB,
                    ThreadPool &Pool, SaturationState &Merged) {
  // Shard the per-key last-writer inference (Algorithm 3, lines 5-15).
  // Keys are independent: all cross-key coupling goes through the read-only
  // HB matrix. 2x oversharding smooths out hot keys while keeping the
  // build (one filtered history scan per shard) cheap.
  size_t NumShards = std::max<size_t>(1, Pool.numThreads() * 2);
  KeyShardIndex Index(H, NumShards, Pool);
  size_t K = H.numSessions();

  Pool.parallelFor(0, NumShards, 1, [&](size_t Begin, size_t End) {
    SaturationState::BatchSink Infer(Merged);
    // Scan pointer and dedup state of the key currently being processed
    // (Algorithm 3, lastWrite); sized to its writing-session count.
    std::vector<uint32_t> Consumed;
    std::vector<uint64_t> LastEmit;
    for (size_t Shard = Begin; Shard < End; ++Shard) {
      for (const KeyEntry &E : Index.shard(Shard)) {
        size_t Slots = E.WriterSessions.size();
        if (Slots == 0 || E.Reads.empty())
          continue;
        Consumed.assign(Slots, 0);
        LastEmit.assign(Slots, ~uint64_t(0));
        SessionId Current = static_cast<SessionId>(-1);
        for (const KeyReadRef &R : E.Reads) {
          // Reads arrive grouped by scanning session in ascending order;
          // pointer state resets at each session boundary, exactly like
          // the sequential pass's per-key epoch stamp.
          if (R.Session != Current) {
            Current = R.Session;
            std::fill(Consumed.begin(), Consumed.end(), 0);
            std::fill(LastEmit.begin(), LastEmit.end(), ~uint64_t(0));
          }
          const uint32_t *Row =
              &HB.Rows[static_cast<size_t>(R.Reader) * K];
          for (size_t Slot = 0; Slot < Slots; ++Slot) {
            const std::vector<KeyWriterRef> &List = E.WriterLists[Slot];
            uint32_t Frontier = Row[E.WriterSessions[Slot]];
            uint32_t &C = Consumed[Slot];
            while (C < List.size() && List[C].SoIndex < Frontier)
              ++C;
            if (C == 0)
              continue;
            TxnId T2 = List[C - 1].T;
            if (T2 == R.Writer)
              continue;
            uint64_t Emit = (static_cast<uint64_t>(C) << 32) | R.Writer;
            if (LastEmit[Slot] == Emit)
              continue;
            LastEmit[Slot] = Emit;
            Infer(T2, R.Writer);
          }
        }
      }
    }
  });
}

} // namespace

bool awdit::checkReadConsistencyParallel(const History &H, ThreadPool &Pool,
                                         std::vector<Violation> &Out) {
  AWDIT_SPAN("check.read_check");
  return runChunkedViolationPass(
      H, Pool, Out,
      [&H](TxnId Begin, TxnId End, std::vector<Violation> &ChunkOut) {
        checkReadConsistencyRange(H, Begin, End, ChunkOut);
      });
}

bool awdit::checkRcParallel(const History &H, ThreadPool &Pool,
                            std::vector<Violation> &Out, size_t MaxWitnesses,
                            SaturationStats *Stats) {
  if (!checkReadConsistencyParallel(H, Pool, Out))
    return false;

  // Shards feed one merged saturation state; its canonical finalize
  // (sorted, deduplicated) makes the result independent of scheduling.
  SaturationState Merged(IsolationLevel::ReadCommitted,
                         SaturationState::Mode::Batch);
  {
    AWDIT_SPAN("check.saturate");
    Pool.parallelFor(0, H.numTxns(), TxnGrain, [&](size_t Begin, size_t End) {
      detail::RcScratch Scratch;
      SaturationState::BatchSink Infer(Merged);
      detail::saturateRcRange(H, static_cast<TxnId>(Begin),
                              static_cast<TxnId>(End), Scratch, Infer);
    });
  }

  return Merged.finalizeAcyclic(H, Out, MaxWitnesses, Stats);
}

bool awdit::checkRaParallel(const History &H, ThreadPool &Pool,
                            std::vector<Violation> &Out, size_t MaxWitnesses,
                            SaturationStats *Stats) {
  if (!checkReadConsistencyParallel(H, Pool, Out))
    return false;
  {
    AWDIT_SPAN("check.read_check");
    if (!runChunkedViolationPass(
            H, Pool, Out,
            [&H](TxnId Begin, TxnId End, std::vector<Violation> &ChunkOut) {
              checkRepeatableReadsRange(H, Begin, End, ChunkOut);
            }))
      return false;
  }

  SaturationState Merged(IsolationLevel::ReadAtomic,
                         SaturationState::Mode::Batch);
  {
    AWDIT_SPAN("check.saturate");
    // One unit of work per session: the so-case last-writer table is
    // inherently sequential along so, but sessions are independent.
    Pool.parallelFor(0, H.numSessions(), 1, [&](size_t Begin, size_t End) {
      detail::RaScratch Scratch;
      SaturationState::BatchSink Infer(Merged);
      for (size_t S = Begin; S < End; ++S)
        detail::saturateRaSession(H, static_cast<SessionId>(S), Scratch,
                                  Infer);
    });
  }

  return Merged.finalizeAcyclic(H, Out, MaxWitnesses, Stats);
}

bool awdit::checkCcParallel(const History &H, ThreadPool &Pool,
                            std::vector<Violation> &Out, size_t MaxWitnesses,
                            SaturationStats *Stats) {
  if (!checkReadConsistencyParallel(H, Pool, Out))
    return false;

  SaturationState Merged(IsolationLevel::CausalConsistency,
                         SaturationState::Mode::Batch);
  {
    AWDIT_SPAN("check.saturate");
    // An so ∪ wr cycle fails every level: no saturation, no stats (mirrors
    // the sequential checker).
    if (std::optional<std::vector<uint32_t>> Order =
            Merged.computeBaseOrder(H)) {
      HappensBefore HB;
      fillHappensBefore(H, *Order, HB);
      inferCcSharded(H, HB, Pool, Merged);
    }
  }

  return Merged.finalizeAcyclic(H, Out, MaxWitnesses,
                                Merged.baseCyclic() ? nullptr : Stats);
}
