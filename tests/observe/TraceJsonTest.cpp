//===- tests/observe/TraceJsonTest.cpp ----------------------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Exporter <-> loader round-trip against the Chrome trace_event schema:
// every event kind survives a write/read cycle field-exact (addresses as
// hex strings, doubles bit-exact via %.17g, timestamps at ns resolution),
// the emitted document has the shape chrome://tracing expects, and the
// loader tolerates foreign events while rejecting non-trace input.
//
//===----------------------------------------------------------------------===//

#include "observe/Json.h"
#include "observe/TraceJson.h"

#include <gtest/gtest.h>

using namespace hcsgc;

namespace {

TraceEvent event(TraceEventKind Kind, uint64_t TimeNs, uint64_t Cycle,
                 uint64_t A = 0, uint64_t B = 0, uint64_t C = 0,
                 uint64_t D = 0, uint8_t GcThread = 0, uint16_t Tid = 0) {
  TraceEvent E;
  E.Kind = Kind;
  E.TimeNs = TimeNs;
  E.Cycle = Cycle;
  E.A = A;
  E.B = B;
  E.C = C;
  E.D = D;
  E.GcThread = GcThread;
  E.Tid = Tid;
  return E;
}

/// One of every kind, with payloads chosen to stress the encoding:
/// full-width addresses, doubles 0.0/1.0/non-terminating, ns timestamps
/// that only survive if the µs conversion keeps 3 decimals.
CollectedTrace makeFullTrace() {
  CollectedTrace T;
  T.DroppedTotal = 42;
  T.Threads.push_back({/*Tid=*/0, /*GcThread=*/true, 9, 0});
  T.Threads.push_back({/*Tid=*/2, /*GcThread=*/false, 3, 42});

  uint64_t Ts = 123456789; // 123456.789 us: needs all three decimals
  auto Next = [&Ts] { return Ts += 1001; };

  T.Events.push_back(event(TraceEventKind::CycleBegin, Next(), 7, 0, 0, 0,
                           0, 1, 0));
  T.Events.push_back(event(TraceEventKind::HotmapReset, Next(), 7,
                           /*pages=*/512, 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::PauseBegin, Next(), 7,
                           uint64_t(GcPhase::Stw1), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::PauseEnd, Next(), 7,
                           uint64_t(GcPhase::Stw1), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::PhaseBegin, Next(), 7,
                           uint64_t(GcPhase::Mark), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::HotFlag, Next(), 7,
                           /*addr=*/0x7f00deadbeef0ull, /*bytes=*/48, 0,
                           0, 0, 2));
  T.Events.push_back(event(TraceEventKind::PhaseEnd, Next(), 7,
                           uint64_t(GcPhase::Mark), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::PhaseBegin, Next(), 7,
                           uint64_t(GcPhase::EcSelect),
                           traceBitsFromDouble(1.0 / 3.0), /*hotness=*/1,
                           0, 1, 0));
  T.Events.push_back(event(TraceEventKind::PhaseEnd, Next(), 7,
                           uint64_t(GcPhase::EcSelect), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::PauseBegin, Next(), 7,
                           uint64_t(GcPhase::Stw3), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::Relocation, Next(), 7,
                           /*from=*/0xffffffffffff8ull,
                           /*to=*/0x300040ull, /*bytes=*/64, 0, 0, 2));
  T.Events.push_back(event(TraceEventKind::PauseEnd, Next(), 7,
                           uint64_t(GcPhase::Stw3), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::PhaseBegin, Next(), 7,
                           uint64_t(GcPhase::Relocate), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::PhaseEnd, Next(), 7,
                           uint64_t(GcPhase::Relocate), 0, 0, 0, 1, 0));
  T.Events.push_back(event(TraceEventKind::AllocStall, Next(), 7,
                           /*bytes=*/1552, /*attempt=*/3,
                           /*cycles=*/2, 0, 0, 2));
  T.Events.push_back(event(TraceEventKind::EmergencyCycle, Next(), 7,
                           /*used=*/4128768, /*quarantined=*/131072, 0,
                           0, 1, 0));
  T.Events.push_back(event(TraceEventKind::CycleEnd, Next(), 7, 0, 0, 0,
                           0, 1, 0));
  return T;
}

} // namespace

TEST(TraceJsonTest, RoundTripsEveryEventKindFieldExact) {
  CollectedTrace Orig = makeFullTrace();
  std::string Json = chromeTraceToString(Orig);

  CollectedTrace Back;
  std::string Error;
  ASSERT_TRUE(readChromeTrace(Json, Back, Error)) << Error;

  EXPECT_EQ(Back.DroppedTotal, 42u);
  ASSERT_EQ(Back.Events.size(), Orig.Events.size());
  for (size_t I = 0; I < Orig.Events.size(); ++I) {
    const TraceEvent &A = Orig.Events[I];
    const TraceEvent &B = Back.Events[I];
    SCOPED_TRACE(std::string("event ") + std::to_string(I) + " (" +
                 traceEventKindName(A.Kind) + ")");
    EXPECT_EQ(B.Kind, A.Kind);
    EXPECT_EQ(B.TimeNs, A.TimeNs);
    EXPECT_EQ(B.Cycle, A.Cycle);
    EXPECT_EQ(B.Tid, A.Tid);
    EXPECT_EQ(B.GcThread, A.GcThread);
    EXPECT_EQ(B.A, A.A);
    EXPECT_EQ(B.B, A.B);
    EXPECT_EQ(B.C, A.C);
    EXPECT_EQ(B.D, A.D) << "doubles must round-trip bit-exact (%.17g)";
  }

  // Thread table rebuilt from metadata + events, GC attribution and
  // each thread's own ring drops intact.
  ASSERT_EQ(Back.Threads.size(), 2u); // tid 0 (gc), tid 2 (mutator)
  for (const TraceThreadInfo &Info : Back.Threads) {
    if (Info.Tid == 0) {
      EXPECT_TRUE(Info.GcThread);
      EXPECT_EQ(Info.Dropped, 0u);
    } else {
      EXPECT_FALSE(Info.GcThread);
      EXPECT_EQ(Info.Dropped, 42u);
    }
  }
}

TEST(TraceJsonTest, DocumentMatchesTraceEventSchema) {
  CollectedTrace T = makeFullTrace();
  std::string Json = chromeTraceToString(T);

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Json, Doc, Error)) << Error;

  // Top-level shape chrome://tracing / Perfetto expect.
  EXPECT_EQ(Doc["displayTimeUnit"].stringOr(""), "ms");
  EXPECT_EQ(Doc["otherData"]["tool"].stringOr(""), "hcsgc");
  EXPECT_DOUBLE_EQ(Doc["otherData"]["dropped_events"].numberOr(-1), 42.0);
  ASSERT_TRUE(Doc["traceEvents"].isArray());

  size_t Meta = 0, Durations = 0, Instants = 0;
  for (const JsonValue &EV : Doc["traceEvents"].array()) {
    ASSERT_TRUE(EV.isObject());
    std::string Ph = EV["ph"].stringOr("");
    if (Ph == "M") {
      ++Meta;
      EXPECT_EQ(EV["name"].stringOr(""), "thread_name");
      EXPECT_FALSE(EV["args"]["name"].stringOr("").empty());
      EXPECT_TRUE(EV["args"]["dropped"].isNumber());
      continue;
    }
    // Every real event: required trace_event fields plus our args.
    EXPECT_TRUE(EV["ts"].isNumber());
    EXPECT_DOUBLE_EQ(EV["pid"].numberOr(0), 1.0);
    EXPECT_TRUE(EV["tid"].isNumber());
    EXPECT_EQ(EV["cat"].stringOr(""), "gc");
    EXPECT_TRUE(EV["args"]["cycle"].isNumber());
    EXPECT_TRUE(EV["args"]["gc_thread"].isBool());
    if (Ph == "B" || Ph == "E") {
      ++Durations;
    } else {
      ASSERT_EQ(Ph, "i") << "unexpected phase type";
      ++Instants;
      // Instants need a scope or chrome://tracing refuses to render them.
      EXPECT_EQ(EV["s"].stringOr(""), "t");
      // Addresses must be strings: 64-bit ints overflow JSON doubles.
      std::string Name = EV["name"].stringOr("");
      if (Name == "hot_flag") {
        EXPECT_TRUE(EV["args"]["addr"].isString());
      }
      if (Name == "relocation") {
        EXPECT_TRUE(EV["args"]["from"].isString());
        EXPECT_TRUE(EV["args"]["to"].isString());
      }
    }
  }
  EXPECT_EQ(Meta, T.Threads.size());
  EXPECT_EQ(Durations + Instants, T.Events.size());
  // B/E events must balance for the timeline to nest properly.
  EXPECT_EQ(Durations % 2, 0u);
}

TEST(TraceJsonTest, EcSelectPhaseCarriesKnobSettings) {
  CollectedTrace T = makeFullTrace();
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(chromeTraceToString(T), Doc, Error)) << Error;

  bool Found = false;
  for (const JsonValue &EV : Doc["traceEvents"].array()) {
    if (EV["name"].stringOr("") != "ec_select" ||
        EV["ph"].stringOr("") != "B")
      continue;
    Found = true;
    EXPECT_DOUBLE_EQ(EV["args"]["confidence"].numberOr(-1), 1.0 / 3.0);
    EXPECT_TRUE(EV["args"]["hotness"].isBool());
    EXPECT_TRUE(EV["args"]["hotness"].boolean());
  }
  EXPECT_TRUE(Found);
}

TEST(TraceJsonTest, LoaderSkipsForeignEventsAndSortsByTime) {
  // A document with foreign events (other tools' categories) interleaved
  // and events out of timestamp order: the loader must keep only ours,
  // time-sorted.
  std::string Json =
      "{\"traceEvents\":["
      "{\"name\":\"relocation\",\"cat\":\"gc\",\"ph\":\"i\",\"ts\":5.0,"
      "\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"cycle\":3,"
      "\"gc_thread\":true,\"from\":\"0x10\",\"to\":\"0x20\","
      "\"bytes\":32}},"
      "{\"name\":\"MinorGC\",\"cat\":\"v8\",\"ph\":\"X\",\"ts\":1.0,"
      "\"pid\":1,\"tid\":1,\"dur\":3,\"args\":{}},"
      "{\"name\":\"hot_flag\",\"cat\":\"gc\",\"ph\":\"i\",\"ts\":2.0,"
      "\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"cycle\":3,"
      "\"gc_thread\":false,\"addr\":\"0xabc\",\"bytes\":16}},"
      "17,"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"app\"}}"
      "]}";
  CollectedTrace T;
  std::string Error;
  ASSERT_TRUE(readChromeTrace(Json, T, Error)) << Error;
  ASSERT_EQ(T.Events.size(), 2u);
  EXPECT_EQ(T.Events[0].Kind, TraceEventKind::HotFlag);
  EXPECT_EQ(T.Events[0].TimeNs, 2000u);
  EXPECT_EQ(T.Events[0].A, 0xabcu);
  EXPECT_EQ(T.Events[1].Kind, TraceEventKind::Relocation);
  EXPECT_EQ(T.Events[1].TimeNs, 5000u);
  EXPECT_EQ(T.Events[1].C, 32u);
  EXPECT_EQ(T.DroppedTotal, 0u); // no otherData: defaults to zero
}

TEST(TraceJsonTest, LoaderRejectsMalformedInput) {
  CollectedTrace T;
  std::string Error;

  EXPECT_FALSE(readChromeTrace("{\"traceEvents\":[", T, Error));
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(readChromeTrace("{\"notATrace\":true}", T, Error));
  EXPECT_NE(Error.find("traceEvents"), std::string::npos);

  Error.clear();
  EXPECT_FALSE(readChromeTrace("[1,2,3]", T, Error));
}

TEST(TraceJsonTest, EmptyTraceStillWellFormed) {
  CollectedTrace Empty;
  std::string Json = chromeTraceToString(Empty);
  CollectedTrace Back;
  std::string Error;
  ASSERT_TRUE(readChromeTrace(Json, Back, Error)) << Error;
  EXPECT_TRUE(Back.Events.empty());
  EXPECT_TRUE(Back.Threads.empty());
  EXPECT_EQ(Back.DroppedTotal, 0u);
}
