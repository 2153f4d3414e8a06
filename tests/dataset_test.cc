#include "data/dataset.h"

#include <gtest/gtest.h>

#include "data/id_index.h"
#include "data/stats.h"

namespace crh {
namespace {

Schema TwoPropertySchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("temp", 1.0).ok());
  EXPECT_TRUE(schema.AddCategorical("cond").ok());
  return schema;
}

TEST(SchemaTest, AddAndLookup) {
  Schema schema = TwoPropertySchema();
  EXPECT_EQ(schema.num_properties(), 2u);
  EXPECT_EQ(schema.FindProperty("temp"), 0);
  EXPECT_EQ(schema.FindProperty("cond"), 1);
  EXPECT_EQ(schema.FindProperty("nope"), -1);
  EXPECT_FALSE(schema.is_categorical(0));
  EXPECT_TRUE(schema.is_categorical(1));
  EXPECT_DOUBLE_EQ(schema.property(0).rounding_unit, 1.0);
}

TEST(SchemaTest, RejectsDuplicates) {
  Schema schema = TwoPropertySchema();
  EXPECT_EQ(schema.AddContinuous("temp").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.AddCategorical("cond").code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, RejectsEmptyName) {
  Schema schema;
  EXPECT_EQ(schema.AddContinuous("").code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, PropertiesOfType) {
  Schema schema = TwoPropertySchema();
  EXPECT_EQ(schema.PropertiesOfType(PropertyType::kContinuous), std::vector<size_t>{0});
  EXPECT_EQ(schema.PropertiesOfType(PropertyType::kCategorical), std::vector<size_t>{1});
}

TEST(CategoryDictTest, InternAndLookup) {
  CategoryDict dict;
  EXPECT_TRUE(dict.empty());
  EXPECT_EQ(dict.GetOrAdd("sunny"), 0);
  EXPECT_EQ(dict.GetOrAdd("rain"), 1);
  EXPECT_EQ(dict.GetOrAdd("sunny"), 0);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Find("rain"), 1);
  EXPECT_EQ(dict.Find("snow"), kInvalidCategory);
  EXPECT_EQ(dict.label(0), "sunny");
}

TEST(IdIndexTest, FindsEveryNameThroughGrowthAndCopies) {
  std::vector<std::string> ids;
  IdIndex index;
  EXPECT_EQ(index.Find("absent", ids), IdIndex::kNotFound);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(index.FindOrAdd("id" + std::to_string(i), &ids), static_cast<size_t>(i));
  }
  EXPECT_EQ(index.FindOrAdd("id17", &ids), 17u);  // no duplicate appended
  ASSERT_EQ(ids.size(), 5000u);
  // Positions survive copying the list together with the index.
  const std::vector<std::string> copied_ids = ids;
  const IdIndex copied_index = index;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(copied_index.Find("id" + std::to_string(i), copied_ids), static_cast<size_t>(i));
  }
  EXPECT_EQ(copied_index.Find("id5000", copied_ids), IdIndex::kNotFound);
  EXPECT_EQ(copied_index.Find("", copied_ids), IdIndex::kNotFound);
}

TEST(IdIndexTest, BuiltIndexMapsRepeatedNamesToTheirLastPosition) {
  const std::vector<std::string> ids = {"a", "b", "a", ""};
  const IdIndex index(ids);
  EXPECT_EQ(index.Find("a", ids), 2u);
  EXPECT_EQ(index.Find("b", ids), 1u);
  EXPECT_EQ(index.Find("", ids), 3u);
  EXPECT_EQ(index.Find("c", ids), IdIndex::kNotFound);
}

TEST(ValueTableTest, StartsAllMissing) {
  ValueTable t(3, 2);
  EXPECT_EQ(t.num_objects(), 3u);
  EXPECT_EQ(t.num_properties(), 2u);
  EXPECT_EQ(t.CountPresent(), 0u);
  EXPECT_TRUE(t.Get(2, 1).is_missing());
}

TEST(ValueTableTest, SetGetClear) {
  ValueTable t(2, 2);
  t.Set(0, 1, Value::Continuous(4.5));
  EXPECT_DOUBLE_EQ(t.Get(0, 1).continuous(), 4.5);
  EXPECT_EQ(t.CountPresent(), 1u);
  t.Clear(0, 1);
  EXPECT_TRUE(t.Get(0, 1).is_missing());
  EXPECT_EQ(t.CountPresent(), 0u);
}

TEST(DatasetTest, ConstructionShapes) {
  Dataset d(TwoPropertySchema(), {"o1", "o2", "o3"}, {"s1", "s2"});
  EXPECT_EQ(d.num_objects(), 3u);
  EXPECT_EQ(d.num_properties(), 2u);
  EXPECT_EQ(d.num_sources(), 2u);
  EXPECT_EQ(d.num_entries(), 6u);
  EXPECT_EQ(d.num_observations(), 0u);
  EXPECT_EQ(d.object_id(1), "o2");
  EXPECT_EQ(d.source_id(0), "s1");
  EXPECT_FALSE(d.has_ground_truth());
  EXPECT_FALSE(d.has_timestamps());
}

TEST(DatasetTest, ObservationsCount) {
  Dataset d(TwoPropertySchema(), {"o1", "o2"}, {"s1", "s2"});
  d.SetObservation(0, 0, 0, Value::Continuous(70));
  d.SetObservation(1, 1, 0, Value::Continuous(75));
  d.SetObservation(1, 0, 1, d.InternCategorical(1, "sunny"));
  EXPECT_EQ(d.num_observations(), 3u);
}

TEST(DatasetTest, TimestampsValidation) {
  Dataset d(TwoPropertySchema(), {"o1", "o2"}, {"s1"});
  EXPECT_EQ(d.set_timestamps({1}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(d.set_timestamps({3, 1}).ok());
  EXPECT_TRUE(d.has_timestamps());
  EXPECT_EQ(d.timestamp(0), 3);
  EXPECT_EQ(d.DistinctTimestamps(), (std::vector<int64_t>{1, 3}));
}

TEST(DatasetTest, ValidateAcceptsWellFormed) {
  Dataset d(TwoPropertySchema(), {"o1"}, {"s1"});
  d.SetObservation(0, 0, 0, Value::Continuous(70));
  d.SetObservation(0, 0, 1, d.InternCategorical(1, "sunny"));
  EXPECT_TRUE(d.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsTypeMismatch) {
  Dataset d(TwoPropertySchema(), {"o1"}, {"s1"});
  d.SetObservation(0, 0, 0, Value::Categorical(0));  // categorical in continuous prop
  EXPECT_EQ(d.Validate().code(), StatusCode::kInternal);
}

TEST(DatasetTest, ValidateRejectsNonFinite) {
  Dataset d(TwoPropertySchema(), {"o1"}, {"s1"});
  d.SetObservation(0, 0, 0, Value::Continuous(std::nan("")));
  EXPECT_EQ(d.Validate().code(), StatusCode::kInternal);
}

TEST(DatasetTest, ValidateRejectsOutOfDictionaryCategory) {
  Dataset d(TwoPropertySchema(), {"o1"}, {"s1"});
  (void)d.InternCategorical(1, "sunny");
  d.SetObservation(0, 0, 1, Value::Categorical(5));  // dict has one label
  EXPECT_EQ(d.Validate().code(), StatusCode::kInternal);
}

TEST(DatasetTest, ValidateChecksGroundTruthToo) {
  Dataset d(TwoPropertySchema(), {"o1"}, {"s1"});
  ValueTable truth(1, 2);
  truth.Set(0, 0, Value::Categorical(0));
  d.set_ground_truth(std::move(truth));
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, GroundTruthCount) {
  Dataset d(TwoPropertySchema(), {"o1", "o2"}, {"s1"});
  EXPECT_EQ(d.num_ground_truths(), 0u);
  ValueTable truth(2, 2);
  truth.Set(0, 0, Value::Continuous(70));
  d.set_ground_truth(std::move(truth));
  EXPECT_EQ(d.num_ground_truths(), 1u);
}

TEST(EntryStatsTest, ComputesStdAcrossSources) {
  Dataset d(TwoPropertySchema(), {"o1"}, {"s1", "s2", "s3"});
  d.SetObservation(0, 0, 0, Value::Continuous(10));
  d.SetObservation(1, 0, 0, Value::Continuous(20));
  d.SetObservation(2, 0, 0, Value::Continuous(30));
  EntryStats stats = ComputeEntryStats(d);
  EXPECT_EQ(stats.count_at(0, 0), 3);
  // Population std of {10, 20, 30} is sqrt(200/3).
  EXPECT_NEAR(stats.scale_at(0, 0), std::sqrt(200.0 / 3.0), 1e-9);
}

TEST(EntryStatsTest, FullyDegeneratePropertyGetsScaleOne) {
  Dataset d(TwoPropertySchema(), {"o1", "o2"}, {"s1", "s2"});
  // All sources agree -> no dispersion anywhere on the property.
  d.SetObservation(0, 0, 0, Value::Continuous(5));
  d.SetObservation(1, 0, 0, Value::Continuous(5));
  // Single claim -> no dispersion either.
  d.SetObservation(0, 1, 0, Value::Continuous(9));
  EntryStats stats = ComputeEntryStats(d);
  EXPECT_DOUBLE_EQ(stats.scale_at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats.scale_at(1, 0), 1.0);
  EXPECT_EQ(stats.count_at(1, 0), 1);
}

TEST(EntryStatsTest, DegenerateEntriesFallBackToPropertyDispersion) {
  // One entry has real dispersion (std 2); a single-claim entry on the
  // same property must inherit it instead of being normalized by 1 (which
  // would let one glitched lone claim dominate MNAD in raw units).
  Dataset d(TwoPropertySchema(), {"o1", "o2", "o3"}, {"s1", "s2"});
  d.SetObservation(0, 0, 0, Value::Continuous(10));
  d.SetObservation(1, 0, 0, Value::Continuous(14));  // std 2
  d.SetObservation(0, 1, 0, Value::Continuous(9));   // single claim
  d.SetObservation(0, 2, 0, Value::Continuous(7));   // agreement
  d.SetObservation(1, 2, 0, Value::Continuous(7));
  EntryStats stats = ComputeEntryStats(d);
  EXPECT_DOUBLE_EQ(stats.scale_at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(stats.scale_at(1, 0), 2.0);  // fallback
  EXPECT_DOUBLE_EQ(stats.scale_at(2, 0), 2.0);  // fallback
}

TEST(EntryStatsTest, CategoricalEntriesGetScaleOneAndCounts) {
  Dataset d(TwoPropertySchema(), {"o1"}, {"s1", "s2"});
  d.SetObservation(0, 0, 1, d.InternCategorical(1, "a"));
  d.SetObservation(1, 0, 1, d.InternCategorical(1, "b"));
  EntryStats stats = ComputeEntryStats(d);
  EXPECT_DOUBLE_EQ(stats.scale_at(0, 1), 1.0);
  EXPECT_EQ(stats.count_at(0, 1), 2);
}

TEST(EntryStatsTest, MissingEntriesHaveZeroCount) {
  Dataset d(TwoPropertySchema(), {"o1"}, {"s1"});
  EntryStats stats = ComputeEntryStats(d);
  EXPECT_EQ(stats.count_at(0, 0), 0);
  EXPECT_DOUBLE_EQ(stats.scale_at(0, 0), 1.0);
}

}  // namespace
}  // namespace crh
