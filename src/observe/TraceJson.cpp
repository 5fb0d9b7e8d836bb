//===- observe/TraceJson.cpp - Chrome trace_event JSON I/O --------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/TraceJson.h"

#include "observe/Json.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

using namespace hcsgc;

namespace {

void appendHex(std::string &Out, const char *Key, uint64_t V) {
  appendf(Out, "\"%s\":\"0x%" PRIx64 "\"", Key, V);
}

/// Chrome "B"/"E" pair name for a duration-style event, or nullptr for
/// instants.
const char *durationName(const TraceEvent &E) {
  switch (E.Kind) {
  case TraceEventKind::CycleBegin:
  case TraceEventKind::CycleEnd:
    return "cycle";
  case TraceEventKind::PhaseBegin:
  case TraceEventKind::PhaseEnd:
  case TraceEventKind::PauseBegin:
  case TraceEventKind::PauseEnd:
    return gcPhaseName(static_cast<GcPhase>(E.A));
  default:
    return nullptr;
  }
}

bool isBeginKind(TraceEventKind K) {
  return K == TraceEventKind::CycleBegin ||
         K == TraceEventKind::PhaseBegin ||
         K == TraceEventKind::PauseBegin;
}

void appendEvent(std::string &Out, const TraceEvent &E) {
  const char *Name = durationName(E);
  const char *Ph = Name ? (isBeginKind(E.Kind) ? "B" : "E") : "i";
  if (!Name)
    Name = traceEventKindName(E.Kind);
  appendf(Out, "{\"name\":\"%s\",\"cat\":\"gc\",\"ph\":\"%s\",", Name,
          Ph);
  appendf(Out, "\"ts\":%.3f,\"pid\":1,\"tid\":%u,",
          static_cast<double>(E.TimeNs) / 1000.0,
          static_cast<unsigned>(E.Tid));
  if (*Ph == 'i')
    Out += "\"s\":\"t\",";
  appendf(Out, "\"args\":{\"cycle\":%" PRIu64 ",\"gc_thread\":%s",
          E.Cycle, E.GcThread ? "true" : "false");
  switch (E.Kind) {
  case TraceEventKind::CycleBegin:
  case TraceEventKind::CycleEnd:
  case TraceEventKind::PhaseEnd:
  case TraceEventKind::PauseBegin:
  case TraceEventKind::PauseEnd:
    break;
  case TraceEventKind::PhaseBegin:
    if (static_cast<GcPhase>(E.A) == GcPhase::EcSelect) {
      appendf(Out, ",\"confidence\":%.17g,\"hotness\":%s",
              traceDoubleFromBits(E.B), E.C ? "true" : "false");
    }
    break;
  case TraceEventKind::HotmapReset:
    appendf(Out, ",\"pages\":%" PRIu64, E.A);
    break;
  case TraceEventKind::HotFlag:
    Out += ',';
    appendHex(Out, "addr", E.A);
    appendf(Out, ",\"bytes\":%" PRIu64, E.B);
    break;
  case TraceEventKind::Relocation:
    Out += ',';
    appendHex(Out, "from", E.A);
    Out += ',';
    appendHex(Out, "to", E.B);
    appendf(Out, ",\"bytes\":%" PRIu64, E.C);
    break;
  case TraceEventKind::AllocStall:
    appendf(Out,
            ",\"bytes\":%" PRIu64 ",\"attempt\":%" PRIu64
            ",\"cycles\":%" PRIu64,
            E.A, E.B, E.C);
    break;
  case TraceEventKind::EmergencyCycle:
    appendf(Out, ",\"used_bytes\":%" PRIu64 ",\"quarantined_bytes\":%" PRIu64,
            E.A, E.B);
    break;
  }
  Out += "}}";
}

uint64_t hexArg(const JsonValue &Args, const char *Key) {
  const JsonValue &V = Args[Key];
  if (V.isString())
    return std::strtoull(V.string().c_str(), nullptr, 16);
  if (V.isNumber())
    return static_cast<uint64_t>(V.number());
  return 0;
}

uint64_t numArg(const JsonValue &Args, const char *Key) {
  return static_cast<uint64_t>(Args[Key].numberOr(0));
}

bool phaseFromName(const std::string &Name, GcPhase &Out) {
  for (GcPhase P : {GcPhase::Stw1, GcPhase::Mark, GcPhase::Stw2,
                    GcPhase::EcSelect, GcPhase::Stw3, GcPhase::Relocate})
    if (Name == gcPhaseName(P)) {
      Out = P;
      return true;
    }
  return false;
}

bool instantFromName(const std::string &Name, TraceEventKind &Out) {
  for (TraceEventKind K :
       {TraceEventKind::HotmapReset, TraceEventKind::HotFlag,
        TraceEventKind::Relocation,
        TraceEventKind::AllocStall, TraceEventKind::EmergencyCycle})
    if (Name == traceEventKindName(K)) {
      Out = K;
      return true;
    }
  return false;
}

} // namespace

std::string hcsgc::chromeTraceToString(const CollectedTrace &T) {
  std::string Out;
  Out.reserve(T.Events.size() * 160 + 1024);
  Out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"hcsgc\","
         "\"dropped_events\":";
  appendf(Out, "%" PRIu64, T.DroppedTotal);
  Out += "},\"traceEvents\":[";
  bool First = true;
  for (const TraceThreadInfo &Info : T.Threads) {
    if (!First)
      Out += ',';
    First = false;
    // The thread's own ring drops ride its metadata, so a reader can
    // tell which thread's events are incomplete.
    appendf(Out,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
            "\"tid\":%u,\"args\":{\"name\":\"%s-%u\","
            "\"dropped\":%" PRIu64 "}}",
            static_cast<unsigned>(Info.Tid),
            Info.GcThread ? "gc" : "mutator",
            static_cast<unsigned>(Info.Tid), Info.Dropped);
  }
  for (const TraceEvent &E : T.Events) {
    if (!First)
      Out += ',';
    First = false;
    appendEvent(Out, E);
  }
  Out += "]}";
  return Out;
}

void hcsgc::writeChromeTrace(const CollectedTrace &T, std::FILE *Out) {
  std::string S = chromeTraceToString(T);
  std::fwrite(S.data(), 1, S.size(), Out);
  std::fputc('\n', Out);
}

bool hcsgc::readChromeTrace(const std::string &Text, CollectedTrace &Out,
                            std::string &Error) {
  JsonValue Doc;
  if (!parseJson(Text, Doc, Error))
    return false;
  if (!Doc.isObject() || !Doc["traceEvents"].isArray()) {
    Error = "not a trace_event document (missing traceEvents array)";
    return false;
  }
  Out = CollectedTrace();
  Out.DroppedTotal =
      static_cast<uint64_t>(Doc["otherData"]["dropped_events"].numberOr(0));

  std::map<uint16_t, TraceThreadInfo> Threads;
  for (const JsonValue &EV : Doc["traceEvents"].array()) {
    if (!EV.isObject())
      continue;
    std::string Ph = EV["ph"].stringOr("");
    std::string Name = EV["name"].stringOr("");
    uint16_t Tid = static_cast<uint16_t>(EV["tid"].numberOr(0));
    if (Ph == "M") {
      if (Name == "thread_name") {
        TraceThreadInfo &Info = Threads[Tid];
        Info.Tid = Tid;
        Info.GcThread =
            EV["args"]["name"].stringOr("").rfind("gc", 0) == 0;
        Info.Dropped = numArg(EV["args"], "dropped");
      }
      continue;
    }
    const JsonValue &Args = EV["args"];
    TraceEvent E;
    E.TimeNs = static_cast<uint64_t>(EV["ts"].numberOr(0) * 1000.0 + 0.5);
    E.Tid = Tid;
    E.Cycle = numArg(Args, "cycle");
    E.GcThread = Args["gc_thread"].isBool() && Args["gc_thread"].boolean()
                     ? 1
                     : 0;
    GcPhase Phase;
    TraceEventKind Instant;
    if (Name == "cycle" && (Ph == "B" || Ph == "E")) {
      E.Kind = Ph == "B" ? TraceEventKind::CycleBegin
                         : TraceEventKind::CycleEnd;
    } else if (phaseFromName(Name, Phase) && (Ph == "B" || Ph == "E")) {
      bool Pause = Phase == GcPhase::Stw1 || Phase == GcPhase::Stw2 ||
                   Phase == GcPhase::Stw3;
      E.Kind = Ph == "B" ? (Pause ? TraceEventKind::PauseBegin
                                  : TraceEventKind::PhaseBegin)
                         : (Pause ? TraceEventKind::PauseEnd
                                  : TraceEventKind::PhaseEnd);
      E.A = static_cast<uint64_t>(Phase);
      if (E.Kind == TraceEventKind::PhaseBegin &&
          Phase == GcPhase::EcSelect) {
        E.B = traceBitsFromDouble(Args["confidence"].numberOr(0));
        E.C = Args["hotness"].isBool() && Args["hotness"].boolean() ? 1
                                                                    : 0;
      }
    } else if (Ph == "i" && instantFromName(Name, Instant)) {
      E.Kind = Instant;
      switch (Instant) {
      case TraceEventKind::HotmapReset:
        E.A = numArg(Args, "pages");
        break;
      case TraceEventKind::HotFlag:
        E.A = hexArg(Args, "addr");
        E.B = numArg(Args, "bytes");
        break;
      case TraceEventKind::Relocation:
        E.A = hexArg(Args, "from");
        E.B = hexArg(Args, "to");
        E.C = numArg(Args, "bytes");
        break;
      case TraceEventKind::AllocStall:
        E.A = numArg(Args, "bytes");
        E.B = numArg(Args, "attempt");
        E.C = numArg(Args, "cycles");
        break;
      case TraceEventKind::EmergencyCycle:
        E.A = numArg(Args, "used_bytes");
        E.B = numArg(Args, "quarantined_bytes");
        break;
      default:
        break;
      }
    } else {
      continue; // foreign event; tolerate and skip
    }
    Out.Events.push_back(E);
    TraceThreadInfo &Info = Threads[Tid];
    Info.Tid = Tid;
    Info.GcThread = Info.GcThread || E.GcThread;
    ++Info.Events;
  }
  for (auto &[Tid, Info] : Threads)
    Out.Threads.push_back(Info);
  std::stable_sort(Out.Events.begin(), Out.Events.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.TimeNs < B.TimeNs;
                   });
  return true;
}
