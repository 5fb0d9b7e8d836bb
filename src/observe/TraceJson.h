//===- observe/TraceJson.h - Chrome trace_event JSON I/O -------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a collected trace to the Chrome trace_event JSON format
/// (the `{"traceEvents":[...]}` object form, loadable in chrome://tracing
/// and Perfetto) and reads such a file back into TraceEvents. Phases and
/// pauses become duration ("B"/"E") events; per-object facts (hot flags,
/// relocations, allocation stalls) become thread-scoped instant ("i")
/// events with their payload in args. Each thread's metadata carries the
/// events its ring dropped. Addresses are emitted as hex strings so they
/// survive the double-typed JSON number space exactly; confidences are
/// emitted as JSON doubles.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_OBSERVE_TRACEJSON_H
#define HCSGC_OBSERVE_TRACEJSON_H

#include "observe/TraceBuffer.h"

#include <cstdio>
#include <string>

namespace hcsgc {

/// Renders \p T as a Chrome trace_event JSON document.
std::string chromeTraceToString(const CollectedTrace &T);

/// Writes chromeTraceToString(T) to \p Out.
void writeChromeTrace(const CollectedTrace &T, std::FILE *Out);

/// Parses a Chrome trace_event document produced by the writer above
/// back into events (sorted by timestamp) and thread info. Unknown
/// events are skipped. \returns false and sets \p Error on malformed
/// input.
bool readChromeTrace(const std::string &Text, CollectedTrace &Out,
                     std::string &Error);

} // namespace hcsgc

#endif // HCSGC_OBSERVE_TRACEJSON_H
