// Tests for the JSON builder and experiment-result serialization.
#include "qbarren/common/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "qbarren/bp/serialize.hpp"
#include "qbarren/common/error.hpp"
#include "qbarren/init/registry.hpp"

namespace qbarren {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(JsonValue::null().dump(), "null");
  EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
  EXPECT_EQ(JsonValue::boolean(false).dump(), "false");
  EXPECT_EQ(JsonValue::integer(-42).dump(), "-42");
  EXPECT_EQ(JsonValue::number(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue::string("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(
      JsonValue::number(std::numeric_limits<double>::quiet_NaN()).dump(),
      "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonValue::string("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue::string("a\\b").dump(), "\"a\\\\b\"");
  EXPECT_EQ(JsonValue::string("a\nb\t").dump(), "\"a\\nb\\t\"");
  EXPECT_EQ(JsonValue::string(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ArraysAndObjects) {
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::integer(1));
  arr.push_back(JsonValue::string("two"));
  EXPECT_EQ(arr.dump(), "[1,\"two\"]");

  JsonValue obj = JsonValue::object();
  obj.set("b", 2.5);
  obj.set("a", std::int64_t{1});
  // std::map ordering -> keys sorted.
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2.5}");

  EXPECT_EQ(JsonValue::array().dump(), "[]");
  EXPECT_EQ(JsonValue::object().dump(), "{}");
}

TEST(Json, NestedAndPrettyPrinted) {
  JsonValue obj = JsonValue::object();
  JsonValue inner = JsonValue::array();
  inner.push_back(JsonValue::integer(1));
  obj.set("xs", std::move(inner));
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("{\n  \"xs\": [\n    1\n  ]\n}"),
            std::string::npos);
}

TEST(Json, TypeMisuseThrows) {
  JsonValue arr = JsonValue::array();
  EXPECT_THROW(arr.set("k", 1.0), InvalidArgument);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW(obj.push_back(JsonValue::null()), InvalidArgument);
  JsonValue scalar = JsonValue::integer(1);
  EXPECT_THROW(scalar.push_back(JsonValue::null()), InvalidArgument);
}

TEST(Json, ParseAcceptsNestingUpToTheLimit) {
  const std::string deepest = std::string(kMaxJsonDepth, '[') + "7" +
                              std::string(kMaxJsonDepth, ']');
  JsonValue v = parse_json(deepest);
  for (std::size_t level = 1; level < kMaxJsonDepth; ++level) {
    v = v.at(0);
  }
  EXPECT_EQ(v.at(0).as_integer(), 7);

  std::string objects;
  for (std::size_t level = 0; level < kMaxJsonDepth; ++level) {
    objects += "{\"k\":";
  }
  objects += "null" + std::string(kMaxJsonDepth, '}');
  EXPECT_NO_THROW((void)parse_json(objects));
}

TEST(Json, ParseRefusesNestingPastTheLimit) {
  // One level too deep, for arrays, objects and a mix of both.
  const std::string arrays = std::string(kMaxJsonDepth + 1, '[') +
                             std::string(kMaxJsonDepth + 1, ']');
  EXPECT_THROW((void)parse_json(arrays), InvalidArgument);
  std::string mixed;
  for (std::size_t level = 0; level <= kMaxJsonDepth; ++level) {
    mixed += level % 2 == 0 ? "[" : "{\"k\":";
  }
  EXPECT_THROW((void)parse_json(mixed), InvalidArgument);

  // Hostile input: 200k unterminated '[' used to overflow the stack.
  try {
    (void)parse_json(std::string(200000, '['));
    FAIL() << "deep nesting was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, NumberArrayHelper) {
  const JsonValue arr = JsonValue::number_array({0.5, 1.5});
  EXPECT_EQ(arr.dump(), "[0.5,1.5]");
}

TEST(Json, WriteFileRoundTrip) {
  JsonValue obj = JsonValue::object();
  obj.set("k", std::int64_t{7});
  const std::string path = ::testing::TempDir() + "/qbarren_json_test.json";
  write_json_file(obj, path, 0);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{\"k\":7}\n");
  std::remove(path.c_str());
  EXPECT_THROW(write_json_file(obj, "/no-such-dir-zz/x.json"), Error);
}

TEST(Serialize, VarianceResultSchema) {
  VarianceExperimentOptions options;
  options.qubit_counts = {2, 3};
  options.circuits_per_point = 6;
  options.layers = 5;
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get(), xavier.get()});

  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"schema\":\"qbarren.variance.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"initializer\":\"random\""), std::string::npos);
  EXPECT_NE(json.find("\"initializer\":\"xavier-normal\""),
            std::string::npos);
  EXPECT_NE(json.find("\"improvement_vs_random_percent\""),
            std::string::npos);
  EXPECT_NE(json.find("\"decay_fit\""), std::string::npos);
  EXPECT_NE(json.find("\"circuits_per_point\":6"), std::string::npos);
}

TEST(Serialize, VarianceImprovementIsNullOnDegenerateBaseline) {
  // A single qubit count leaves the random series without a usable decay
  // fit; the improvement field stays in the schema but carries null
  // instead of disappearing.
  VarianceExperimentOptions options;
  options.qubit_counts = {2};
  options.circuits_per_point = 6;
  options.layers = 5;
  const auto random = make_initializer("random");
  const auto xavier = make_initializer("xavier-normal");
  const VarianceResult result =
      VarianceExperiment(options).run({random.get(), xavier.get()});
  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"improvement_vs_random_percent\":null"),
            std::string::npos);
}

TEST(Serialize, TrainingResultSchema) {
  TrainingExperimentOptions options;
  options.qubits = 2;
  options.layers = 1;
  options.iterations = 3;
  const auto xavier = make_initializer("xavier-normal");
  const TrainingResult result =
      TrainingExperiment(options).run({xavier.get()});
  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"schema\":\"qbarren.training.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"loss_history\":["), std::string::npos);
  EXPECT_NE(json.find("\"optimizer\":\"gradient-descent\""),
            std::string::npos);
}

TEST(Serialize, LandscapeResultSchema) {
  LandscapeOptions options;
  options.qubits = 2;
  options.layers = 3;
  options.grid_points = 4;
  const LandscapeResult result = scan_landscape(options);
  const std::string json = to_json(result).dump();
  EXPECT_NE(json.find("\"schema\":\"qbarren.landscape.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"values_row_major\":["), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"random_background\":true"), std::string::npos);
}

}  // namespace
}  // namespace qbarren
