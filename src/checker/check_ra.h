//===- checker/check_ra.h - AWDIT Read Atomic (Alg. 2) ------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AWDIT's O(n^{3/2}) Read Atomic checker (paper Algorithm 2 /
/// Theorem 1.1): Read Consistency, the repeatable-reads property, and co'
/// saturation handling the so ∪ wr premise as two separate cases (session
/// last-writer table, and smaller-set intersection per wr predecessor).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_CHECK_RA_H
#define AWDIT_CHECKER_CHECK_RA_H

#include "checker/check_rc.h"
#include "checker/read_consistency.h"
#include "checker/violation.h"
#include "history/history.h"

#include <vector>

namespace awdit {

/// Checks the repeatable-reads property (Algorithm 2, lines 21-28): no
/// committed transaction reads the same key from two different
/// transactions. Appends NonRepeatableRead violations; returns true iff the
/// property holds.
bool checkRepeatableReads(const History &H, std::vector<Violation> &Out);

/// Range form of checkRepeatableReads over transactions [Begin, End), the
/// unit of work of the parallel engine. Transactions are independent;
/// concatenating range outputs in range order reproduces the sequential
/// violation list.
bool checkRepeatableReadsRange(const History &H, TxnId Begin, TxnId End,
                               std::vector<Violation> &Out);

/// Checks repeatable reads of transaction \p Id alone (nothing if it
/// aborted) in O(reads · log reads), appending its violations to \p Out.
/// Returns true iff it added no violation.
bool checkRepeatableReadsTxn(const History &H, TxnId Id,
                             ReadCheckScratch &Scratch,
                             std::vector<Violation> &Out);

/// Checks whether \p H satisfies Read Atomic. Appends violations to \p Out
/// (at most \p MaxWitnesses cycle witnesses) and returns true iff
/// consistent.
bool checkRa(const History &H, std::vector<Violation> &Out,
             size_t MaxWitnesses = 16, SaturationStats *Stats = nullptr);

} // namespace awdit

#endif // AWDIT_CHECKER_CHECK_RA_H
