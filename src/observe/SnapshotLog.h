//===- observe/SnapshotLog.h - Snapshot JSONL reader/writer ----*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization for the heap locality observatory: one JSON object per
/// cycle per line (JSONL), so a streaming writer never needs to hold
/// more than one capture and a reader can filter by line. Each line opens
/// with the cycle number and its CycleRecord (the "record" object: EC
/// composition, relocation attribution, tier bytes and the phase times
/// in ms), then the knobs, the census rows and the site rows. The reader
/// is strict: a missing member (the record included), a malformed
/// address, a negative or fractional byte count or an unknown enum name
/// fails the line. Conventions shared with the trace exporter: addresses
/// are hex strings (they do not fit a double exactly), doubles are
/// printed with %.17g so WLB weights, budgets and phase times round-trip
/// bit-exactly through strtod — the heapscope --replay check and the
/// snapshot invariant tests compare them with operator==.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_OBSERVE_SNAPSHOTLOG_H
#define HCSGC_OBSERVE_SNAPSHOTLOG_H

#include "observe/HeapSnapshot.h"

#include <cstdio>
#include <string>
#include <vector>

namespace hcsgc {

/// \returns \p S as one JSON object (single line, no trailing newline).
std::string snapshotToJson(const CycleSnapshot &S);

/// Writes \p S to \p F as one JSONL line.
void writeSnapshotJsonl(const CycleSnapshot &S, std::FILE *F);

/// Parses one JSONL line. On failure returns false and fills \p Error
/// with the offending record and field ("page 3: missing verdict").
bool parseSnapshotLine(const std::string &Line, CycleSnapshot &Out,
                       std::string &Error);

/// Parses a whole snapshot log (empty lines are skipped). On failure
/// returns false and fills \p Error with the offending line number.
bool readSnapshotLog(const std::string &Text,
                     std::vector<CycleSnapshot> &Out, std::string &Error);

/// Parses a cycle-filter specification: either "N" (meaning N..N) or
/// "A..B" (inclusive). Rejects empty input, trailing garbage on either
/// number, and B < A. Shared by heapscope's --cycles flag and the tests
/// covering it. \returns false (leaving \p Lo / \p Hi untouched) on any
/// malformed input.
bool parseCycleRange(const char *Spec, uint64_t &Lo, uint64_t &Hi);

} // namespace hcsgc

#endif // HCSGC_OBSERVE_SNAPSHOTLOG_H
