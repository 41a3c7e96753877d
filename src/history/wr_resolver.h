//===- history/wr_resolver.h - Incremental wr resolution ---------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write-site index behind wr resolution (unique-value convention,
/// Definition 2.2): maps (key, value) to the transaction/op that wrote it
/// and rejects duplicate writes. Factored out of HistoryBuilder::build() so
/// the streaming Monitor can resolve wr *incrementally* — one write at a
/// time, with retroactive lookup of reads that arrived before their writer
/// — against the exact same index semantics the one-shot builder uses.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_HISTORY_WR_RESOLVER_H
#define AWDIT_HISTORY_WR_RESOLVER_H

#include "history/types.h"
#include "support/assert.h"
#include "support/flat_table.h"

#include <string>

namespace awdit {

/// The canonical error text for a violated unique-value invariant, shared
/// by HistoryBuilder, the Monitor, and the format parsers so every layer
/// reports the same diagnostic.
inline std::string duplicateWriteMessage(Key K, Value V) {
  return "duplicate write of key " + std::to_string(K) + " value " +
         std::to_string(V) + " (wr resolution requires unique values)";
}

/// A (key, value) pair, hashable, for wr resolution and duplicate-write
/// detection.
struct KeyValue {
  Key K;
  Value V;
  bool operator==(const KeyValue &O) const { return K == O.K && V == O.V; }
};

struct KeyValueHash {
  size_t operator()(const KeyValue &KV) const {
    // Odd-multiply the key so (K, V) and (V, K) differ, then avalanche:
    // the flat index masks the low bits.
    return static_cast<size_t>(mixHash64(KV.K * 0x9e3779b97f4a7c15ULL ^
                                         static_cast<uint64_t>(KV.V)));
  }
};

/// Location of a write: owning transaction and op index within it.
struct WriteSite {
  TxnId T;
  uint32_t Op;
};

/// The (key, value) -> write-site index. wr^-1 must be a function, so
/// record() rejects a second write of the same pair. One flat table
/// (support/flat_table.h) of 24-byte slots; a slot is empty when its site
/// has no transaction, so every key and value stays representable.
class WriteSiteIndex {
public:
  /// Records a write of (\p K, \p V) at (\p T, \p Op). Returns false when
  /// the pair was already written (the model invariant violation). \p T
  /// must be a real transaction id, not NoTxn.
  bool record(Key K, Value V, TxnId T, uint32_t Op) {
    AWDIT_ASSERT(T != NoTxn, "WriteSiteIndex::record: NoTxn site");
    auto [S, Claimed] = Table.insert(KeyValue{K, V});
    if (!Claimed)
      return false;
    *S = Slot{KeyValue{K, V}, WriteSite{T, Op}};
    return true;
  }

  /// Looks up the write site of (\p K, \p V); nullptr if nothing wrote it
  /// (so far). The pointer is valid until the next record() or erase().
  const WriteSite *find(Key K, Value V) const {
    const Slot *S = Table.find(KeyValue{K, V});
    return S ? &S->Site : nullptr;
  }

  /// Removes the entry for (\p K, \p V), if present. Used by the windowed
  /// Monitor when the writing transaction is evicted.
  void erase(Key K, Value V) { Table.erase(KeyValue{K, V}); }

  size_t size() const { return Table.size(); }

  /// Calls \p Fn(const KeyValue &, const WriteSite &) for every entry, in
  /// unspecified order. Checkpoint serialization sorts the result itself.
  template <typename Fn> void forEach(Fn &&F) const {
    Table.forEach([&](const Slot &S) { F(S.KV, S.Site); });
  }

  /// The table's slot count and hash, so tests can aim entries at chosen
  /// slots.
  size_t capacity() const { return Table.capacity(); }
  static uint64_t hash(Key K, Value V) {
    return KeyValueHash()(KeyValue{K, V});
  }

private:
  struct Slot {
    KeyValue KV{0, 0};
    WriteSite Site{NoTxn, NoOp};
    bool empty() const { return Site.T == NoTxn; }
    const KeyValue &key() const { return KV; }
    static uint64_t hash(const KeyValue &KV) { return KeyValueHash()(KV); }
  };
  FlatTable<Slot> Table;
};

} // namespace awdit

#endif // AWDIT_HISTORY_WR_RESOLVER_H
