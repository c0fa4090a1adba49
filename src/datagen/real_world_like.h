#ifndef NDV_DATAGEN_REAL_WORLD_LIKE_H_
#define NDV_DATAGEN_REAL_WORLD_LIKE_H_

#include <cstdint>

#include "table/table.h"

namespace ndv {

// Simulated stand-ins for the paper's three real-world datasets. The
// originals (UCI Census/Adult, UCI CoverType, and Microsoft's internal
// MSSales) are not available offline; estimator behavior depends only on
// per-column frequency profiles, so each simulation matches the real
// dataset's row count, column count, and per-column cardinality/skew
// structure. See DESIGN.md §4 for the substitution rationale.

// Census (UCI "Adult"): 32,561 rows, 15 columns — a mix of small
// categorical domains (workclass, education, sex, ...), moderate numeric
// domains (age, hours-per-week), and one near-unique weight column
// (fnlwgt).
Table MakeCensusLike(uint64_t seed = 101);

// CoverType: 581,012 rows, 11 columns — moderate-cardinality terrain
// attributes (elevation, aspect, slope, distances, hillshades) plus the
// 7-valued cover type label.
Table MakeCoverTypeLike(uint64_t seed = 202);

// MSSales: 1,996,290 rows, 20 columns — a sales schema: near-unique license
// numbers, long-tailed revenue/product columns, and low-cardinality
// dimension columns (division, region, flags).
Table MakeMSSalesLike(uint64_t seed = 303);

// Scaled-down variants for fast tests (same column structure, fewer rows).
Table MakeCensusLikeScaled(int64_t rows, uint64_t seed = 101);
Table MakeCoverTypeLikeScaled(int64_t rows, uint64_t seed = 202);
Table MakeMSSalesLikeScaled(int64_t rows, uint64_t seed = 303);

}  // namespace ndv

#endif  // NDV_DATAGEN_REAL_WORLD_LIKE_H_
