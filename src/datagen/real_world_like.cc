#include "datagen/real_world_like.h"

#include <vector>

#include "common/check.h"
#include "datagen/synthetic_table.h"

namespace ndv {
namespace {

// Column structures mirror the public schemas (cardinalities from the UCI
// documentation) and, for MSSales, a plausible sales-tracking schema.

std::vector<ColumnSpec> CensusSpecs() {
  return {
      ColumnSpec::Normal("age", 38.6, 13.6),             // ~73 distinct
      ColumnSpec::Zipf("workclass", 9, 1.2),             // 'Private' dominates
      ColumnSpec::Unique("fnlwgt"),                      // near-unique weight
      ColumnSpec::Zipf("education", 16, 0.8),
      ColumnSpec::Normal("education_num", 10.1, 2.6),    // 16 distinct
      ColumnSpec::Zipf("marital_status", 7, 0.9),
      ColumnSpec::Zipf("occupation", 15, 0.5),
      ColumnSpec::Zipf("relationship", 6, 0.8),
      ColumnSpec::Zipf("race", 5, 2.0),                  // 'White' dominates
      ColumnSpec::Zipf("sex", 2, 0.5),
      ColumnSpec::Zipf("capital_gain", 120, 2.5),        // mostly 0
      ColumnSpec::Zipf("capital_loss", 99, 2.5),         // mostly 0
      ColumnSpec::Normal("hours_per_week", 40.4, 12.3),  // ~94 distinct
      ColumnSpec::Zipf("native_country", 42, 2.2),       // 'US' dominates
      ColumnSpec::Zipf("income", 2, 0.7),
  };
}

std::vector<ColumnSpec> CoverTypeSpecs() {
  return {
      ColumnSpec::Normal("elevation", 2959.0, 280.0),                // ~2k
      ColumnSpec::Uniform("aspect", 361),
      ColumnSpec::Normal("slope", 14.1, 7.5),                        // ~67
      ColumnSpec::Normal("horiz_dist_hydrology", 269.0, 212.0),
      ColumnSpec::Normal("vert_dist_hydrology", 46.0, 58.0),
      ColumnSpec::Normal("horiz_dist_roadways", 2350.0, 1559.0),
      ColumnSpec::Normal("hillshade_9am", 212.0, 27.0),              // <=256
      ColumnSpec::Normal("hillshade_noon", 223.0, 20.0),
      ColumnSpec::Normal("hillshade_3pm", 143.0, 38.0),
      ColumnSpec::Normal("horiz_dist_fire_points", 1980.0, 1324.0),
      ColumnSpec::Zipf("cover_type", 7, 1.1),
  };
}

std::vector<ColumnSpec> MSSalesSpecs() {
  return {
      ColumnSpec::Unique("license_number"),
      ColumnSpec::Zipf("product", 8000, 1.2),       // long-tailed catalog
      ColumnSpec::Zipf("product_family", 60, 1.0),
      ColumnSpec::Zipf("division", 12, 0.8),
      ColumnSpec::Zipf("sub_division", 85, 1.0),
      ColumnSpec::Zipf("region", 9, 0.6),
      ColumnSpec::Zipf("country", 190, 1.6),
      ColumnSpec::Zipf("city", 30000, 1.3),
      ColumnSpec::Zipf("customer_segment", 5, 0.5),
      ColumnSpec::Zipf("channel", 4, 0.9),
      ColumnSpec::Zipf("reseller", 45000, 1.5),
      ColumnSpec::Normal("revenue", 5000.0, 2200.0),  // long numeric spread
      ColumnSpec::Zipf("units", 2000, 2.0),           // mostly small orders
      ColumnSpec::Uniform("order_date", 365),         // fiscal year of days
      ColumnSpec::Uniform("ship_date", 380),
      ColumnSpec::Zipf("discount_pct", 25, 1.4),
      ColumnSpec::Zipf("currency", 35, 1.8),          // USD dominates
      ColumnSpec::Zipf("sales_rep", 3500, 1.1),
      ColumnSpec::Zipf("promo_code", 400, 2.0),
      ColumnSpec::Zipf("is_renewal", 2, 0.4),
  };
}

}  // namespace

Table MakeCensusLike(uint64_t seed) { return MakeCensusLikeScaled(32561, seed); }

Table MakeCoverTypeLike(uint64_t seed) {
  return MakeCoverTypeLikeScaled(581012, seed);
}

Table MakeMSSalesLike(uint64_t seed) {
  return MakeMSSalesLikeScaled(1996290, seed);
}

Table MakeCensusLikeScaled(int64_t rows, uint64_t seed) {
  NDV_CHECK(rows >= 1);
  return MakeSyntheticTable(rows, CensusSpecs(), seed);
}

Table MakeCoverTypeLikeScaled(int64_t rows, uint64_t seed) {
  NDV_CHECK(rows >= 1);
  return MakeSyntheticTable(rows, CoverTypeSpecs(), seed);
}

Table MakeMSSalesLikeScaled(int64_t rows, uint64_t seed) {
  NDV_CHECK(rows >= 1);
  return MakeSyntheticTable(rows, MSSalesSpecs(), seed);
}

}  // namespace ndv
