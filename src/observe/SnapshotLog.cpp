//===- observe/SnapshotLog.cpp - Snapshot JSONL reader/writer -----------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/SnapshotLog.h"

#include "observe/Json.h"

#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace hcsgc;

namespace {

void appendHex(std::string &Out, uint64_t V) {
  appendf(Out, "\"0x%" PRIx64 "\"", V);
}

/// %.17g guarantees strtod reads back the identical double.
void appendDouble(std::string &Out, double D) {
  appendf(Out, "%.17g", D);
}

void appendPage(std::string &Out, const PageRecord &R) {
  Out += "{\"begin\":";
  appendHex(Out, R.PageBegin);
  appendf(Out, ",\"size\":%" PRIu64 ",\"used\":%" PRIu64
               ",\"live\":%" PRIu64 ",\"hot\":%" PRIu64
               ",\"alloc_seq\":%" PRIu64 ",\"reloc_gc\":%" PRIu64
               ",\"reloc_mut\":%" PRIu64,
          R.PageSize, R.UsedBytes, R.LiveBytes, R.HotBytes, R.AllocSeq,
          R.RelocOutBytesGc, R.RelocOutBytesMutator);
  Out += ",\"wlb\":";
  appendDouble(Out, R.Wlb);
  Out += ",\"weight\":";
  appendDouble(Out, R.Weight);
  appendf(Out, ",\"t0\":%" PRIu64 ",\"t1\":%" PRIu64 ",\"t2\":%" PRIu64
               ",\"t3\":%" PRIu64,
          R.TempBytes[0], R.TempBytes[1], R.TempBytes[2], R.TempBytes[3]);
  appendf(Out, ",\"class\":\"%s\",\"state\":\"%s\",\"pinned\":%s,"
               "\"tier\":\"%s\",\"verdict\":\"%s\"}",
          snapSizeClassName(R.SizeClass), snapPageStateName(R.State),
          R.Pinned ? "true" : "false",
          snapPageTierName(static_cast<SnapPageTier>(R.Tier)),
          ecVerdictName(R.Verdict));
}

/// Site names are code-chosen identifiers, but escape defensively so a
/// quote or backslash in a name can never corrupt the JSONL stream.
void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        appendf(Out, "\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

void appendSite(std::string &Out, const SiteRecord &R) {
  appendf(Out, "{\"id\":%" PRIu64 ",\"name\":", R.SiteIdNum);
  appendJsonString(Out, R.Name);
  appendf(Out, ",\"alloc\":%" PRIu64 ",\"survived\":%" PRIu64
               ",\"hot\":%" PRIu64 ",\"reloc\":%" PRIu64
               ",\"pretenured\":%" PRIu64,
          R.AllocatedBytes, R.SurvivedBytes, R.HotBytes, R.RelocatedBytes,
          R.PretenuredBytes);
  Out += ",\"ewma\":";
  appendDouble(Out, R.HotEwma);
  appendf(Out, ",\"route\":\"%s\"}", snapSiteRouteName(R.Route));
}

/// The record without its cycle (the line's top-level cycle is the only
/// cycle number): its CycleCounts, then each CyclePhases time as
/// <name>_ms, stw2_ms and wall_ms.
void appendRecord(std::string &Out, const CycleRecord &R) {
  char Sep = '{';
  for (const CycleCount &C : CycleCounts) {
    appendf(Out, "%c\"%s\":%" PRIu64, Sep, C.Key, R.*C.Member);
    Sep = ',';
  }
  for (const CyclePhase &Ph : CyclePhases) {
    appendf(Out, ",\"%s_ms\":", Ph.Name);
    appendDouble(Out, R.*Ph.Ms);
  }
  Out += ",\"stw2_ms\":";
  appendDouble(Out, R.Stw2Ms);
  Out += ",\"wall_ms\":";
  appendDouble(Out, R.WallMs);
  Out += '}';
}

/// Strict member access for one JSON object: every reader fails on an
/// absent member ("missing <key>") or a value of the wrong shape ("bad
/// <key>: ..."), never defaulting it, so a truncated or foreign log is
/// rejected at its first bad field instead of replaying zeros.
class FieldReader {
public:
  FieldReader(const JsonValue &J, std::string &Error) : J(J), Error(Error) {}

  /// A byte count or counter: a non-negative integer below 2^64.
  bool u64(const char *Key, uint64_t &Out) {
    const JsonValue *V = get(Key);
    if (!V)
      return false;
    double D = V->numberOr(-1.0);
    if (D < 0.0 || D != std::floor(D) || D >= 18446744073709551616.0)
      return bad(Key, "not a non-negative integer");
    Out = static_cast<uint64_t>(D);
    return true;
  }

  bool number(const char *Key, double &Out) {
    const JsonValue *V = get(Key);
    if (!V)
      return false;
    if (!V->isNumber())
      return bad(Key, "not a number");
    Out = V->number();
    return true;
  }

  bool flag(const char *Key, uint8_t &Out) {
    const JsonValue *V = get(Key);
    if (!V)
      return false;
    if (!V->isBool())
      return bad(Key, "not a boolean");
    Out = V->boolean() ? 1 : 0;
    return true;
  }

  bool string(const char *Key, std::string &Out) {
    const JsonValue *V = get(Key);
    if (!V)
      return false;
    if (!V->isString())
      return bad(Key, "not a string");
    Out = V->string();
    return true;
  }

  /// An address: "0x" and 1-16 hex digits, nothing else.
  bool hex(const char *Key, uint64_t &Out) {
    std::string S;
    if (!string(Key, S))
      return false;
    size_t Digits = S.size() < 2 ? 0 : S.size() - 2;
    if (S.compare(0, 2, "0x") != 0 || Digits == 0 || Digits > 16 ||
        S.find_first_not_of("0123456789abcdefABCDEF", 2) !=
            std::string::npos)
      return bad(Key, "\"" + S + "\" is not a hex address");
    Out = std::strtoull(S.c_str() + 2, nullptr, 16);
    return true;
  }

  /// A string naming one of the \p Count values \p NameOf maps 0.. to.
  template <typename E>
  bool oneOf(const char *Key, const char *(*NameOf)(E), unsigned Count,
             E &Out) {
    std::string S;
    if (!string(Key, S))
      return false;
    for (unsigned I = 0; I < Count; ++I)
      if (S == NameOf(static_cast<E>(I))) {
        Out = static_cast<E>(I);
        return true;
      }
    return bad(Key, "unknown value \"" + S + "\"");
  }

private:
  const JsonValue *get(const char *Key) {
    const JsonValue &V = J[Key];
    if (V.isNull()) {
      Error = std::string("missing ") + Key;
      return nullptr;
    }
    return &V;
  }

  bool bad(const char *Key, const std::string &Why) {
    Error = std::string("bad ") + Key + ": " + Why;
    return false;
  }

  const JsonValue &J;
  std::string &Error;
};

const char *tierName(uint8_t T) {
  return snapPageTierName(static_cast<SnapPageTier>(T));
}

bool parsePage(const JsonValue &J, PageRecord &R, std::string &Error) {
  if (!J.isObject())
    return (Error = "not an object"), false;
  FieldReader F(J, Error);
  // The verdict first: it is what makes a page row EC's decision record,
  // so a row written without one fails naming exactly that.
  return F.oneOf("verdict", ecVerdictName,
                 static_cast<unsigned>(EcVerdict::NotJudged) + 1,
                 R.Verdict) &&
         F.hex("begin", R.PageBegin) && F.u64("size", R.PageSize) &&
         F.u64("used", R.UsedBytes) && F.u64("live", R.LiveBytes) &&
         F.u64("hot", R.HotBytes) && F.u64("alloc_seq", R.AllocSeq) &&
         F.u64("reloc_gc", R.RelocOutBytesGc) &&
         F.u64("reloc_mut", R.RelocOutBytesMutator) &&
         F.number("wlb", R.Wlb) && F.number("weight", R.Weight) &&
         F.u64("t0", R.TempBytes[0]) && F.u64("t1", R.TempBytes[1]) &&
         F.u64("t2", R.TempBytes[2]) && F.u64("t3", R.TempBytes[3]) &&
         F.oneOf("class", snapSizeClassName, 3, R.SizeClass) &&
         F.oneOf("state", snapPageStateName, 3, R.State) &&
         F.flag("pinned", R.Pinned) && F.oneOf("tier", tierName, 4, R.Tier);
}

bool parseRecord(const JsonValue &J, CycleRecord &R, std::string &Error) {
  if (J.isNull())
    return (Error = "missing record"), false;
  if (!J.isObject())
    return (Error = "bad record: not an object"), false;
  FieldReader F(J, Error);
  bool Ok = true;
  for (const CycleCount &C : CycleCounts)
    Ok = Ok && F.u64(C.Key, R.*C.Member);
  for (const CyclePhase &Ph : CyclePhases)
    Ok = Ok && F.number((std::string(Ph.Name) + "_ms").c_str(), R.*Ph.Ms);
  Ok = Ok && F.number("stw2_ms", R.Stw2Ms) && F.number("wall_ms", R.WallMs);
  if (!Ok)
    Error = "record: " + Error;
  return Ok;
}

bool parseSite(const JsonValue &J, SiteRecord &R, std::string &Error) {
  if (!J.isObject())
    return (Error = "not an object"), false;
  FieldReader F(J, Error);
  return F.u64("id", R.SiteIdNum) && F.string("name", R.Name) &&
         F.u64("alloc", R.AllocatedBytes) &&
         F.u64("survived", R.SurvivedBytes) && F.u64("hot", R.HotBytes) &&
         F.u64("reloc", R.RelocatedBytes) &&
         F.u64("pretenured", R.PretenuredBytes) &&
         F.number("ewma", R.HotEwma) &&
         F.oneOf("route", snapSiteRouteName, 3, R.Route);
}

/// Parses each element of the array member \p Key with \p ParseOne; an
/// element's error is prefixed with \p Kind and its index.
template <typename T>
bool parseArray(const JsonValue &J, const char *Key, const char *Kind,
                bool (*ParseOne)(const JsonValue &, T &, std::string &),
                std::vector<T> &Out, std::string &Error) {
  const JsonValue &A = J[Key];
  if (!A.isArray())
    return (Error = std::string("missing ") + Key + " array"), false;
  Out.resize(A.array().size());
  for (size_t I = 0; I < Out.size(); ++I)
    if (!ParseOne(A.array()[I], Out[I], Error)) {
      Error = std::string(Kind) + " " + std::to_string(I) + ": " + Error;
      return false;
    }
  return true;
}

} // namespace

std::string hcsgc::snapshotToJson(const CycleSnapshot &S) {
  std::string Out;
  Out.reserve(1024 + S.Pages.size() * 200 + S.Sites.size() * 160);
  appendf(Out, "{\"cycle\":%" PRIu64 ",\"record\":", S.Cycle);
  appendRecord(Out, S.Record);
  appendf(Out, ",\"time_ns\":%" PRIu64, S.TimeNs);
  Out += ",\"cold_confidence\":";
  appendDouble(Out, S.ColdConfidence);
  Out += ",\"evac_live_threshold\":";
  appendDouble(Out, S.EvacLiveThreshold);
  Out += ",\"budget_small\":";
  appendDouble(Out, S.BudgetSmall);
  Out += ",\"budget_medium\":";
  appendDouble(Out, S.BudgetMedium);
  Out += ",\"required_free\":";
  appendDouble(Out, S.RequiredFree);
  appendf(Out, ",\"hotness\":%s,\"temperature\":%s,\"relocate_all\":%s",
          S.Hotness ? "true" : "false", S.Temperature ? "true" : "false",
          S.RelocateAll ? "true" : "false");
  Out += ",\"pages\":[";
  for (size_t I = 0; I < S.Pages.size(); ++I) {
    if (I)
      Out += ',';
    appendPage(Out, S.Pages[I]);
  }
  Out += "],\"sites\":[";
  for (size_t I = 0; I < S.Sites.size(); ++I) {
    if (I)
      Out += ',';
    appendSite(Out, S.Sites[I]);
  }
  Out += "]}";
  return Out;
}

void hcsgc::writeSnapshotJsonl(const CycleSnapshot &S, std::FILE *F) {
  std::string Line = snapshotToJson(S);
  std::fwrite(Line.data(), 1, Line.size(), F);
  std::fputc('\n', F);
}

bool hcsgc::parseSnapshotLine(const std::string &Line, CycleSnapshot &Out,
                              std::string &Error) {
  JsonValue J;
  if (!parseJson(Line, J, Error))
    return false;
  if (!J.isObject())
    return (Error = "snapshot line is not an object"), false;
  Out = CycleSnapshot();
  FieldReader F(J, Error);
  // The pages before the cycle-wide fields, so a line of another schema
  // fails on its first page row, the part a replay reads; then the
  // record, so a line that predates it fails naming exactly that.
  if (!F.u64("cycle", Out.Cycle) ||
      !parseArray(J, "pages", "page", parsePage, Out.Pages, Error) ||
      !parseRecord(J["record"], Out.Record, Error))
    return false;
  Out.Record.Cycle = Out.Cycle;
  return F.u64("time_ns", Out.TimeNs) &&
         F.number("cold_confidence", Out.ColdConfidence) &&
         F.number("evac_live_threshold", Out.EvacLiveThreshold) &&
         F.number("budget_small", Out.BudgetSmall) &&
         F.number("budget_medium", Out.BudgetMedium) &&
         F.number("required_free", Out.RequiredFree) &&
         F.flag("hotness", Out.Hotness) &&
         F.flag("temperature", Out.Temperature) &&
         F.flag("relocate_all", Out.RelocateAll) &&
         parseArray(J, "sites", "site", parseSite, Out.Sites, Error);
}

bool hcsgc::readSnapshotLog(const std::string &Text,
                            std::vector<CycleSnapshot> &Out,
                            std::string &Error) {
  size_t Pos = 0, LineNo = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size();
    ++LineNo;
    std::string Line = Text.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    CycleSnapshot S;
    if (!parseSnapshotLine(Line, S, Error)) {
      Error = "line " + std::to_string(LineNo) + ": " + Error;
      return false;
    }
    Out.push_back(std::move(S));
  }
  return true;
}

bool hcsgc::parseCycleRange(const char *Spec, uint64_t &Lo,
                            uint64_t &Hi) {
  if (!Spec || !*Spec)
    return false;
  char *End = nullptr;
  uint64_t A = std::strtoull(Spec, &End, 10);
  if (End == Spec)
    return false;
  uint64_t B = A;
  if (End[0] == '.' && End[1] == '.') {
    const char *HiStr = End + 2;
    B = std::strtoull(HiStr, &End, 10);
    if (End == HiStr)
      return false;
  }
  // Anything after the consumed number(s) — "3..7junk", "5x" — is a
  // malformed spec, not a filter.
  if (*End != '\0')
    return false;
  if (B < A)
    return false;
  Lo = A;
  Hi = B;
  return true;
}
