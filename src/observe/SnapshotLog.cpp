//===- observe/SnapshotLog.cpp - Snapshot JSONL reader/writer -----------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/SnapshotLog.h"

#include "observe/Json.h"

#include <cinttypes>
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
  appendf(Out, ",\"t0\":%" PRIu64 ",\"t1\":%" PRIu64 ",\"t2\":%" PRIu64
               ",\"t3\":%" PRIu64,
          R.TempBytes[0], R.TempBytes[1], R.TempBytes[2], R.TempBytes[3]);
  appendf(Out, ",\"class\":\"%s\",\"state\":\"%s\",\"pinned\":%s,"
               "\"ec\":%s,\"tier\":\"%s\"}",
          snapSizeClassName(R.SizeClass), snapPageStateName(R.State),
          R.Pinned ? "true" : "false", R.EcSelected ? "true" : "false",
          snapPageTierName(static_cast<SnapPageTier>(R.Tier)));
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

void appendAuditEntry(std::string &Out, const EcAuditEntry &E) {
  Out += "{\"begin\":";
  appendHex(Out, E.PageBegin);
  appendf(Out, ",\"size\":%" PRIu64 ",\"live\":%" PRIu64
               ",\"hot\":%" PRIu64,
          E.PageSize, E.LiveBytes, E.HotBytes);
  Out += ",\"weight\":";
  appendDouble(Out, E.Weight);
  appendf(Out, ",\"t0\":%" PRIu64 ",\"t1\":%" PRIu64 ",\"t2\":%" PRIu64
               ",\"t3\":%" PRIu64,
          E.TempBytes[0], E.TempBytes[1], E.TempBytes[2], E.TempBytes[3]);
  appendf(Out, ",\"class\":\"%s\",\"pinned\":%s,\"verdict\":\"%s\"}",
          snapSizeClassName(E.SizeClass), E.Pinned ? "true" : "false",
          ecVerdictName(E.Verdict));
}

bool parseHexField(const JsonValue &V, uint64_t &Out) {
  if (!V.isString())
    return false;
  Out = std::strtoull(V.string().c_str(), nullptr, 16);
  return true;
}

uint64_t asU64(const JsonValue &V) {
  return static_cast<uint64_t>(V.numberOr(0));
}

bool classFromName(const std::string &S, SnapSizeClass &Out) {
  if (S == "small")
    Out = SnapSizeClass::Small;
  else if (S == "medium")
    Out = SnapSizeClass::Medium;
  else if (S == "large")
    Out = SnapSizeClass::Large;
  else
    return false;
  return true;
}

bool stateFromName(const std::string &S, SnapPageState &Out) {
  if (S == "active")
    Out = SnapPageState::Active;
  else if (S == "reloc_source")
    Out = SnapPageState::RelocSource;
  else if (S == "quarantined")
    Out = SnapPageState::Quarantined;
  else
    return false;
  return true;
}

/// Lenient: pre-temperature logs have no "tier" field (stringOr("")),
/// which reads as None.
bool tierFromName(const std::string &S, uint8_t &Out) {
  if (S.empty() || S == "none")
    Out = static_cast<uint8_t>(SnapPageTier::None);
  else if (S == "hot")
    Out = static_cast<uint8_t>(SnapPageTier::Hot);
  else if (S == "warm")
    Out = static_cast<uint8_t>(SnapPageTier::Warm);
  else if (S == "cold")
    Out = static_cast<uint8_t>(SnapPageTier::Cold);
  else
    return false;
  return true;
}

bool verdictFromName(const std::string &S, EcVerdict &Out) {
  for (unsigned V = 0;
       V <= static_cast<unsigned>(EcVerdict::LargeIgnored); ++V)
    if (S == ecVerdictName(static_cast<EcVerdict>(V))) {
      Out = static_cast<EcVerdict>(V);
      return true;
    }
  return false;
}

bool parsePage(const JsonValue &J, PageRecord &R, std::string &Error) {
  if (!J.isObject())
    return (Error = "page record is not an object"), false;
  if (!parseHexField(J["begin"], R.PageBegin))
    return (Error = "page record missing hex begin"), false;
  R.PageSize = asU64(J["size"]);
  R.UsedBytes = asU64(J["used"]);
  R.LiveBytes = asU64(J["live"]);
  R.HotBytes = asU64(J["hot"]);
  R.AllocSeq = asU64(J["alloc_seq"]);
  R.RelocOutBytesGc = asU64(J["reloc_gc"]);
  R.RelocOutBytesMutator = asU64(J["reloc_mut"]);
  R.Wlb = J["wlb"].numberOr(0);
  // Temperature fields are absent in pre-temperature logs; numberOr(0)
  // keeps those parsing as all-tier-0.
  R.TempBytes[0] = asU64(J["t0"]);
  R.TempBytes[1] = asU64(J["t1"]);
  R.TempBytes[2] = asU64(J["t2"]);
  R.TempBytes[3] = asU64(J["t3"]);
  if (!classFromName(J["class"].stringOr(""), R.SizeClass))
    return (Error = "bad page size class"), false;
  if (!stateFromName(J["state"].stringOr(""), R.State))
    return (Error = "bad page state"), false;
  R.Pinned = J["pinned"].isBool() && J["pinned"].boolean();
  R.EcSelected = J["ec"].isBool() && J["ec"].boolean();
  if (!tierFromName(J["tier"].stringOr(""), R.Tier))
    return (Error = "bad page tier"), false;
  return true;
}

/// Lenient like the tier field: unknown route strings read as hot.
uint8_t routeFromName(const std::string &S) {
  if (S == "warm")
    return 1;
  if (S == "cold")
    return 2;
  return 0;
}

bool parseSite(const JsonValue &J, SiteRecord &R, std::string &Error) {
  if (!J.isObject())
    return (Error = "site record is not an object"), false;
  R.SiteIdNum = asU64(J["id"]);
  R.Name = J["name"].stringOr("unknown");
  R.AllocatedBytes = asU64(J["alloc"]);
  R.SurvivedBytes = asU64(J["survived"]);
  R.HotBytes = asU64(J["hot"]);
  R.RelocatedBytes = asU64(J["reloc"]);
  R.PretenuredBytes = asU64(J["pretenured"]);
  R.HotEwma = J["ewma"].numberOr(0);
  R.Route = routeFromName(J["route"].stringOr(""));
  return true;
}

bool parseAuditEntry(const JsonValue &J, EcAuditEntry &E,
                     std::string &Error) {
  if (!J.isObject())
    return (Error = "audit entry is not an object"), false;
  if (!parseHexField(J["begin"], E.PageBegin))
    return (Error = "audit entry missing hex begin"), false;
  E.PageSize = asU64(J["size"]);
  E.LiveBytes = asU64(J["live"]);
  E.HotBytes = asU64(J["hot"]);
  E.Weight = J["weight"].numberOr(0);
  E.TempBytes[0] = asU64(J["t0"]);
  E.TempBytes[1] = asU64(J["t1"]);
  E.TempBytes[2] = asU64(J["t2"]);
  E.TempBytes[3] = asU64(J["t3"]);
  if (!classFromName(J["class"].stringOr(""), E.SizeClass))
    return (Error = "bad audit size class"), false;
  E.Pinned = J["pinned"].isBool() && J["pinned"].boolean();
  if (!verdictFromName(J["verdict"].stringOr(""), E.Verdict))
    return (Error = "bad audit verdict"), false;
  return true;
}

} // namespace

std::string hcsgc::snapshotToJson(const CycleSnapshot &S) {
  std::string Out;
  Out.reserve(128 + S.Pages.size() * 160 +
              (S.HasAudit ? S.Audit.Entries.size() * 140 : 0));
  appendf(Out, "{\"cycle\":%" PRIu64 ",\"point\":\"%s\",\"time_ns\":%" PRIu64,
          S.Cycle, snapshotPointName(S.Point), S.TimeNs);
  Out += ",\"cold_confidence\":";
  appendDouble(Out, S.ColdConfidence);
  appendf(Out, ",\"hotness\":%s,\"temperature\":%s",
          S.Hotness ? "true" : "false", S.Temperature ? "true" : "false");
  Out += ",\"pages\":[";
  for (size_t I = 0; I < S.Pages.size(); ++I) {
    if (I)
      Out += ',';
    appendPage(Out, S.Pages[I]);
  }
  Out += ']';
  // Only SITEPROFILING captures carry site rows; omitting the empty
  // array keeps non-site configs' log bytes identical to older builds.
  if (!S.Sites.empty()) {
    Out += ",\"sites\":[";
    for (size_t I = 0; I < S.Sites.size(); ++I) {
      if (I)
        Out += ',';
      appendSite(Out, S.Sites[I]);
    }
    Out += ']';
  }
  if (S.HasAudit) {
    const EcAudit &A = S.Audit;
    appendf(Out, ",\"audit\":{\"cycle\":%" PRIu64, A.Cycle);
    Out += ",\"cold_confidence\":";
    appendDouble(Out, A.ColdConfidence);
    Out += ",\"evac_live_threshold\":";
    appendDouble(Out, A.EvacLiveThreshold);
    Out += ",\"budget_small\":";
    appendDouble(Out, A.BudgetSmall);
    Out += ",\"budget_medium\":";
    appendDouble(Out, A.BudgetMedium);
    Out += ",\"required_free\":";
    appendDouble(Out, A.RequiredFree);
    appendf(Out,
            ",\"hotness\":%s,\"relocate_all\":%s,\"temperature\":%s,"
            "\"entries\":[",
            A.Hotness ? "true" : "false",
            A.RelocateAll ? "true" : "false",
            A.Temperature ? "true" : "false");
    for (size_t I = 0; I < A.Entries.size(); ++I) {
      if (I)
        Out += ',';
      appendAuditEntry(Out, A.Entries[I]);
    }
    Out += "]}";
  }
  Out += '}';
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
  Out.Cycle = asU64(J["cycle"]);
  std::string Point = J["point"].stringOr("");
  if (Point == "after_mark")
    Out.Point = SnapshotPoint::AfterMark;
  else if (Point == "after_ec")
    Out.Point = SnapshotPoint::AfterEc;
  else
    return (Error = "bad snapshot point"), false;
  Out.TimeNs = asU64(J["time_ns"]);
  Out.ColdConfidence = J["cold_confidence"].numberOr(0);
  Out.Hotness = J["hotness"].isBool() && J["hotness"].boolean();
  Out.Temperature =
      J["temperature"].isBool() && J["temperature"].boolean();
  const JsonValue &Pages = J["pages"];
  if (!Pages.isArray())
    return (Error = "snapshot line has no pages array"), false;
  Out.Pages.reserve(Pages.array().size());
  for (const JsonValue &P : Pages.array()) {
    PageRecord R;
    if (!parsePage(P, R, Error))
      return false;
    Out.Pages.push_back(R);
  }
  // Pre-site-schema logs have no "sites" array: absent reads as empty.
  const JsonValue &Sites = J["sites"];
  if (Sites.isArray()) {
    Out.Sites.reserve(Sites.array().size());
    for (const JsonValue &SV : Sites.array()) {
      SiteRecord R;
      if (!parseSite(SV, R, Error))
        return false;
      Out.Sites.push_back(std::move(R));
    }
  }
  const JsonValue &Audit = J["audit"];
  if (Audit.isObject()) {
    Out.HasAudit = true;
    EcAudit &A = Out.Audit;
    A.Cycle = asU64(Audit["cycle"]);
    A.ColdConfidence = Audit["cold_confidence"].numberOr(0);
    A.EvacLiveThreshold = Audit["evac_live_threshold"].numberOr(0);
    A.BudgetSmall = Audit["budget_small"].numberOr(0);
    A.BudgetMedium = Audit["budget_medium"].numberOr(0);
    A.RequiredFree = Audit["required_free"].numberOr(0);
    A.Hotness = Audit["hotness"].isBool() && Audit["hotness"].boolean();
    A.RelocateAll =
        Audit["relocate_all"].isBool() && Audit["relocate_all"].boolean();
    A.Temperature =
        Audit["temperature"].isBool() && Audit["temperature"].boolean();
    const JsonValue &Entries = Audit["entries"];
    if (!Entries.isArray())
      return (Error = "audit has no entries array"), false;
    A.Entries.reserve(Entries.array().size());
    for (const JsonValue &E : Entries.array()) {
      EcAuditEntry Ent;
      if (!parseAuditEntry(E, Ent, Error))
        return false;
      A.Entries.push_back(Ent);
    }
  }
  return true;
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
