// Tests for the src/io serialization layer: JSON parse/dump semantics,
// the serialize -> parse -> serialize fixed-point property, NaN/inf
// encoding, malformed-input errors, lossless study-results round-trips,
// and the golden-snapshot regression gate over the full reproduced
// evaluation at the deterministic test scale.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "io/explore_json.hpp"
#include "io/json.hpp"
#include "io/pareto_json.hpp"
#include "io/study_json.hpp"
#include "study/explore.hpp"
#include "study/pareto.hpp"
#include "study/study_engine.hpp"

namespace fpr::io {
namespace {

// ---------------------------------------------------------------------------
// Parser / writer basics

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_u64(), 42u);
  EXPECT_EQ(parse("-7").as_number(), -7.0);
  EXPECT_DOUBLE_EQ(parse("2.5e3").as_number(), 2500.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse("  \t\n 1 \r\n").as_u64(), 1u);
}

TEST(Json, ParsesContainers) {
  const Json v = parse(R"({"a": [1, 2.5, "x"], "b": {"c": true}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[0].as_u64(), 1u);
  EXPECT_EQ(v.at("a").as_array()[2].as_string(), "x");
  EXPECT_EQ(v.at("b").at("c").as_bool(), true);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), JsonError);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  // Writer escapes control characters and round-trips them.
  const Json v{std::string("line1\nline2\x01")};
  EXPECT_EQ(parse(dump(v)).as_string(), v.as_string());
}

TEST(Json, U64RoundTripsExactly) {
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  EXPECT_EQ(parse(dump(Json(big))).as_u64(), big);
  // Beyond double precision: 2^53 + 1 must survive exactly.
  const std::uint64_t odd = (1ull << 53) + 1;
  EXPECT_EQ(parse(dump(Json(odd))).as_u64(), odd);
  // Large negatives take the int64 path.
  EXPECT_EQ(parse("-9223372036854775808").as_number(),
            -9223372036854775808.0);
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double d : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324,
                         std::numeric_limits<double>::max(), -0.0, 1e308}) {
    const Json v{d};
    const double back = parse(dump(v)).as_number();
    EXPECT_EQ(std::signbit(back), std::signbit(d));
    EXPECT_EQ(back, d) << dump(v);
  }
}

TEST(Json, NanAndInfEncodeAsStrings) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(dump(Json(nan)), "\"NaN\"");
  EXPECT_EQ(dump(Json(inf)), "\"Infinity\"");
  EXPECT_EQ(dump(Json(-inf)), "\"-Infinity\"");
  EXPECT_TRUE(std::isnan(parse("\"NaN\"").as_number()));
  EXPECT_EQ(parse("\"Infinity\"").as_number(), inf);
  EXPECT_EQ(parse("\"-Infinity\"").as_number(), -inf);
  // A plain string is still a string, not silently numeric.
  EXPECT_THROW((void)parse("\"nan\"").as_number(), JsonError);
}

TEST(Json, MalformedInputsThrowWithPosition) {
  const std::vector<std::string> bad = {
      "",        "{",        "[1,]",        "{\"a\":}", "tru",
      "1.2.3",   "\"\\x\"",  "{\"a\" 1}",   "1 2",      "[1 2]",
      "{\"a\": 1,}", "\"unterminated", "nul",      "+1",
      "\"bad \x01 ctl\"", "\"\\ud800\"",  // unpaired surrogate
  };
  for (const auto& text : bad) {
    EXPECT_THROW((void)parse(text), JsonError) << "input: " << text;
  }
  // Deep nesting is bounded, not a stack overflow.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_THROW((void)parse(deep), JsonError);
  // Error messages carry line:column.
  try {
    (void)parse("{\n  \"a\": oops\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("2:8"), std::string::npos)
        << e.what();
  }
}

TEST(Json, AccessTypeErrors) {
  EXPECT_THROW((void)parse("1").as_string(), JsonError);
  EXPECT_THROW((void)parse("\"x\"").as_bool(), JsonError);
  EXPECT_THROW((void)parse("[1]").as_object(), JsonError);
  EXPECT_THROW((void)parse("-1").as_u64(), JsonError);
  EXPECT_THROW((void)parse("1.5").as_u64(), JsonError);
}

TEST(Json, ObjectsPreserveInsertionOrderAndSetReplaces) {
  Json obj = Json::object();
  obj.set("z", 1).set("a", 2).set("z", 3);
  EXPECT_EQ(dump(obj), "{\n  \"z\": 3,\n  \"a\": 2\n}");
}

// ---------------------------------------------------------------------------
// The fixed-point property: for ANY value v, dump(parse(dump(v))) is
// byte-identical to dump(v). Checked over randomized value trees whose
// doubles come from raw bit patterns (subnormals, huge exponents, NaN).

Json random_value(Xoshiro256& rng, int depth) {
  const std::uint64_t pick = rng.below(depth >= 4 ? 6 : 8);
  switch (pick) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.below(2) == 0);
    case 2: return Json(rng.next());  // u64
    case 3: return Json(static_cast<std::int64_t>(rng.next()));
    case 4: {
      double d;
      const std::uint64_t bits = rng.next();
      static_assert(sizeof(d) == sizeof(bits));
      std::memcpy(&d, &bits, sizeof(d));
      return Json(d);
    }
    case 5: {
      std::string s;
      const auto len = rng.below(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        s += static_cast<char>(rng.below(0x60) + 0x20);  // printable ASCII
      }
      if (rng.below(4) == 0) s += "\n\t\"\\";
      return Json(std::move(s));
    }
    case 6: {
      Json arr = Json::array();
      const auto len = rng.below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        arr.push(random_value(rng, depth + 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::object();
      const auto len = rng.below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        obj.set("k" + std::to_string(i), random_value(rng, depth + 1));
      }
      return obj;
    }
  }
}

TEST(Json, SerializeParseSerializeIsAFixedPoint) {
  Xoshiro256 rng(0xc0ffee);
  for (int iter = 0; iter < 200; ++iter) {
    const Json v = random_value(rng, 0);
    const std::string s1 = dump(v);
    const std::string s2 = dump(parse(s1));
    ASSERT_EQ(s1, s2) << "iteration " << iter;
  }
}

// ---------------------------------------------------------------------------
// Study-results serialization

study::StudyResults tiny_results() {
  auto cfg = study::golden_config();
  cfg.kernels = {"BABL2"};
  cfg.trace_refs = 20'000;
  cfg.scale = 0.15;
  static const study::StudyResults r = study::StudyEngine(cfg).run();
  return r;
}

TEST(StudyJson, RoundTripIsLossless) {
  const auto r = tiny_results();
  const Json doc = to_json(r);
  const auto back = study_from_json(doc);
  EXPECT_EQ(dump(to_json(back)), dump(doc));
  // Spot-check rehydration quality beyond the string comparison.
  ASSERT_EQ(back.kernels.size(), r.kernels.size());
  const auto& k0 = back.kernels[0];
  EXPECT_EQ(k0.info.abbrev, "BABL2");
  EXPECT_EQ(k0.meas.ops.fp64, r.kernels[0].meas.ops.fp64);
  ASSERT_EQ(k0.machines.size(), 3u);
  EXPECT_EQ(k0.machines[0].cpu.short_name, "KNL");
  EXPECT_EQ(k0.machines[0].cpu.cores, 64);  // full CpuSpec rehydrated
  EXPECT_EQ(k0.machines[0].freq_sweep.size(),
            r.kernels[0].machines[0].freq_sweep.size());
  EXPECT_EQ(k0.on("BDW").perf.bound, r.kernels[0].on("BDW").perf.bound);
}

TEST(StudyJson, RoundTripSurvivesTextForm) {
  const Json doc = to_json(tiny_results());
  const std::string text = dump(doc);
  EXPECT_EQ(dump(to_json(study_from_json(parse(text)))), text);
}

TEST(StudyJson, RejectsForeignAndFutureDocuments) {
  EXPECT_THROW((void)study_from_json(parse(R"({"format": "nope",
      "version": 1, "kernels": []})")),
               JsonError);
  EXPECT_THROW((void)study_from_json(parse(R"({"format": "fpr-study-results",
      "version": 999, "kernels": []})")),
               JsonError);
  EXPECT_THROW((void)study_from_json(parse(R"({"kernels": []})")), JsonError);
  // Unknown machine names cannot rehydrate a CpuSpec.
  Json doc = to_json(tiny_results());
  auto mut_key = [](Json& obj, std::string_view key) -> Json& {
    for (auto& [k, v] : obj.as_object()) {
      if (k == key) return v;
    }
    throw JsonError("test: missing key " + std::string(key));
  };
  Json& machines = mut_key(mut_key(doc, "kernels").as_array()[0], "machines");
  machines.as_array()[0].set("machine", "XXX");
  EXPECT_THROW((void)study_from_json(doc), JsonError);

  // Only an integer from 1 to the supported version is a version.
  const Json good = to_json(tiny_results());
  for (const Json& version : {Json(0), Json(-5), Json(1.5), Json(1e300),
                              Json("NaN"), Json("Infinity")}) {
    Json bad = good;
    bad.set("version", version);
    EXPECT_THROW((void)study_from_json(bad), JsonError) << dump(version);
  }
  Json one = good;
  one.set("version", 1);
  EXPECT_NO_THROW((void)study_from_json(one));
  // The same holds for the access pattern's integer fields.
  const std::string text = dump(good);
  const auto at = text.find("\"arrays\": ");
  ASSERT_NE(at, std::string::npos);
  for (const char* value : {"1e300", "\"NaN\"", "-1", "2.5"}) {
    std::string bad = text;
    bad.replace(at, bad.find(',', at) - at,
                std::string("\"arrays\": ") + value);
    EXPECT_THROW((void)study_from_json(parse(bad)), JsonError) << value;
  }

  // Identities are unique: a repeated kernel, or a kernel's repeated
  // machine, is named.
  const auto error_of = [](const study::StudyResults& r) -> std::string {
    try {
      (void)study_from_json(to_json(r));
    } catch (const JsonError& e) {
      return e.what();
    }
    return "";
  };
  auto kernel_twice = tiny_results();
  kernel_twice.kernels.push_back(kernel_twice.kernels[0]);
  EXPECT_EQ(error_of(kernel_twice), "kernel 'BABL2' appears more than once");
  auto knl_twice = tiny_results();
  knl_twice.kernels[0].machines.push_back(knl_twice.kernels[0].machines[0]);
  EXPECT_EQ(error_of(knl_twice),
            "kernel 'BABL2': machine 'KNL' appears more than once");
}

TEST(StudyJson, RejectsPatternIntegersTooWideForTheirField) {
  // Every narrowed access-pattern field loads its type's maximum and
  // rejects anything above it with an error naming the key, where a cast
  // would wrap (4294967304 is 2^32 + 8, which a cast reads as 8).
  const Json spec = to_json(memsim::AccessPatternSpec{
      {{memsim::StreamPattern{}, 1.0},
       {memsim::StridedPattern{}, 1.0},
       {memsim::StencilPattern{}, 1.0},
       {memsim::GatherPattern{}, 1.0},
       {memsim::ChasePattern{}, 1.0}}});
  // A one-component spec: component `i` of `spec` with `key` set to `v`.
  const auto with = [&](std::size_t i, const char* key, std::uint64_t v) {
    Json component = spec.at("components").as_array()[i];
    Json pattern = component.at("pattern");
    pattern.set(key, v);
    component.set("pattern", std::move(pattern));
    return Json::object().set("components", Json::array().push(component));
  };
  constexpr std::uint64_t kIntMax = 2147483647, kU32Max = 4294967295;
  for (const auto& [i, key, max] :
       std::vector<std::tuple<std::size_t, const char*, std::uint64_t>>{
           {0, "arrays", kIntMax},
           {0, "writes_per_iter", kIntMax},
           {1, "stride_bytes", kU32Max},
           {2, "elem_bytes", kU32Max},
           {2, "radius", kIntMax},
           {3, "elem_bytes", kU32Max},
           {4, "node_bytes", kU32Max}}) {
    EXPECT_NO_THROW((void)access_spec_from_json(with(i, key, max))) << key;
    for (const std::uint64_t over : {max + 1, std::uint64_t{4294967304}}) {
      try {
        (void)access_spec_from_json(with(i, key, over));
        ADD_FAILURE() << key << " = " << over << " loaded";
      } catch (const JsonError& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden snapshot: the committed tests/golden/study_snapshot.json is the
// reproduced evaluation at the deterministic test scale (golden_config).
// Integers (op counts, working sets) must match exactly; floating-point
// metrics compare with a relative tolerance of 1e-9 — wide enough for
// libm/codegen differences between toolchains, six orders of magnitude
// tighter than any real model regression.
//
// Regenerate after an intentional model/kernel change with:
//   ./build/fpr study --golden --out tests/golden/study_snapshot.json

constexpr double kGoldenRelTol = 1e-9;

/// True for the writer's string spellings of non-finite doubles, which
/// is how they come back from a snapshot file (as_number() accepts
/// them, but is_number() is false).
bool is_nonfinite_string(const Json& v) {
  if (!v.is_string()) return false;
  const std::string& s = v.as_string();
  return s == "NaN" || s == "Infinity" || s == "-Infinity";
}

void compare_json(const Json& got, const Json& want, const std::string& path,
                  std::vector<std::string>& mismatches) {
  auto note = [&](const std::string& what) {
    if (mismatches.size() < 20) mismatches.push_back(path + ": " + what);
  };
  if (want.is_object()) {
    if (!got.is_object()) return note("expected object");
    const auto& wo = want.as_object();
    const auto& go = got.as_object();
    if (wo.size() != go.size()) return note("object size differs");
    for (const auto& [k, wv] : wo) {
      const Json* gv = got.find(k);
      if (gv == nullptr) return note("missing key " + k);
      compare_json(*gv, wv, path + "." + k, mismatches);
    }
    return;
  }
  if (want.is_array()) {
    if (!got.is_array()) return note("expected array");
    const auto& wa = want.as_array();
    const auto& ga = got.as_array();
    if (wa.size() != ga.size()) return note("array size differs");
    for (std::size_t i = 0; i < wa.size(); ++i) {
      compare_json(ga[i], wa[i], path + "[" + std::to_string(i) + "]",
                   mismatches);
    }
    return;
  }
  if (want.is_double() || got.is_double() || is_nonfinite_string(want) ||
      is_nonfinite_string(got)) {
    if ((!got.is_number() && !is_nonfinite_string(got)) ||
        (!want.is_number() && !is_nonfinite_string(want))) {
      return note("expected number");
    }
    const double g = got.as_number();
    const double w = want.as_number();
    // NaN/inf never slip through a NaN comparison: only NaN-vs-NaN and
    // equal infinities count as matching.
    if (std::isnan(g) || std::isnan(w)) {
      if (!(std::isnan(g) && std::isnan(w))) {
        note("got " + dump(got) + ", want " + dump(want));
      }
      return;
    }
    if (std::isinf(g) || std::isinf(w)) {
      if (g != w) note("got " + dump(got) + ", want " + dump(want));
      return;
    }
    const double denom = std::max(std::abs(g), std::abs(w));
    if (denom != 0.0 && std::abs(g - w) / denom > kGoldenRelTol) {
      note("got " + dump(got) + ", want " + dump(want));
    }
    return;
  }
  if (dump(got) != dump(want)) {
    note("got " + dump(got) + ", want " + dump(want));
  }
}

TEST(GoldenSnapshot, ComparatorHandlesNonFiniteSpellings) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::string> mm;
  // A snapshot's "NaN"/"Infinity" strings match the in-memory doubles.
  compare_json(Json(nan), parse("\"NaN\""), "$", mm);
  compare_json(Json(inf), parse("\"Infinity\""), "$", mm);
  compare_json(parse("\"NaN\""), Json(nan), "$", mm);
  EXPECT_TRUE(mm.empty()) << mm.front();
  // ...but non-finite drift is a mismatch, never a silent pass.
  compare_json(Json(1.0), parse("\"NaN\""), "$", mm);
  EXPECT_EQ(mm.size(), 1u);
  compare_json(parse("\"Infinity\""), parse("\"-Infinity\""), "$", mm);
  EXPECT_EQ(mm.size(), 2u);
  compare_json(Json(nan), Json(1.0), "$", mm);
  EXPECT_EQ(mm.size(), 3u);
}

TEST(GoldenSnapshot, StudyMatchesCommittedSnapshot) {
  const Json want = load_file(FPR_GOLDEN_SNAPSHOT);
  const Json got = to_json(study::StudyEngine(study::golden_config()).run());
  std::vector<std::string> mismatches;
  compare_json(got, want, "$", mismatches);
  for (const auto& m : mismatches) ADD_FAILURE() << m;
  EXPECT_TRUE(mismatches.empty())
      << "golden snapshot drifted; if intentional, regenerate with "
         "`fpr study --golden --out tests/golden/study_snapshot.json`";
}

TEST(GoldenExplore, MatchesCommittedSnapshot) {
  const Json want = load_file(FPR_EXPLORE_GOLDEN);
  const Json got =
      to_json(study::ExploreEngine(study::golden_explore_config()).run());
  std::vector<std::string> mismatches;
  compare_json(got, want, "$", mismatches);
  for (const auto& m : mismatches) ADD_FAILURE() << m;
  EXPECT_TRUE(mismatches.empty())
      << "explore snapshot drifted; if intentional, regenerate with "
         "`fpr explore --golden --out tests/golden/explore_snapshot.json`";
}

TEST(GoldenPareto, MatchesCommittedSnapshot) {
  const Json want = load_file(FPR_PARETO_GOLDEN);
  const Json got =
      to_json(study::ParetoEngine(study::golden_pareto_config()).run());
  std::vector<std::string> mismatches;
  compare_json(got, want, "$", mismatches);
  for (const auto& m : mismatches) ADD_FAILURE() << m;
  EXPECT_TRUE(mismatches.empty())
      << "pareto snapshot drifted; if intentional, regenerate with "
         "`fpr pareto --base KNL --kernel AMG,HPL,XSBn,BABL2 --scale 0.2 "
         "--trace-refs 120000 --rounds 2 --threads 1 --out "
         "tests/golden/pareto_snapshot.json`";
}

}  // namespace
}  // namespace fpr::io
