#include <gtest/gtest.h>

#include "data/bit_matrix.h"
#include "data/catalog.h"
#include "data/generator.h"
#include "data/matrix.h"
#include "data/normalize.h"
#include "data/simhash.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

TEST(MatrixTest, BasicAccess) {
  FloatMatrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m.row(1)[2], 7.0f);
  m.mutable_row(0)[3] = 2.0f;
  EXPECT_FLOAT_EQ(m(0, 3), 2.0f);
  EXPECT_EQ(m.SizeBytes(), 12 * sizeof(float));
  EXPECT_TRUE(FloatMatrix().empty());
}

TEST(BitMatrixTest, SetGetAndHamming) {
  BitMatrix m(2, 130);  // spills into a third word.
  EXPECT_EQ(m.words_per_row(), 3u);
  m.Set(0, 0, true);
  m.Set(0, 129, true);
  m.Set(1, 129, true);
  EXPECT_TRUE(m.Get(0, 0));
  EXPECT_TRUE(m.Get(0, 129));
  EXPECT_FALSE(m.Get(0, 64));
  EXPECT_EQ(BitMatrix::HammingDistance(m.row(0), m.row(1)), 1);
  m.Set(0, 0, false);
  EXPECT_EQ(BitMatrix::HammingDistance(m.row(0), m.row(1)), 0);
}

TEST(MinMaxScalerTest, FitTransformUnitRange) {
  FloatMatrix data(3, 2);
  data(0, 0) = -5.0f;
  data(1, 0) = 0.0f;
  data(2, 0) = 5.0f;
  data(0, 1) = 10.0f;
  data(1, 1) = 10.0f;  // constant dimension.
  data(2, 1) = 10.0f;
  const MinMaxScaler scaler = MinMaxScaler::Fit(data);
  const FloatMatrix out = scaler.Transform(data);
  EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(out(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 0.0f);  // constant dim maps to 0.

  // Out-of-range queries clamp.
  std::vector<float> query = {100.0f, -3.0f};
  std::vector<float> scaled(2);
  scaler.TransformRow(query, scaled);
  EXPECT_FLOAT_EQ(scaled[0], 1.0f);
  EXPECT_FLOAT_EQ(scaled[1], 0.0f);
}

TEST(CatalogTest, AllEightPaperDatasets) {
  const auto& all = Catalog::All();
  ASSERT_EQ(all.size(), 8u);
  // Table 6 dimensionalities are preserved exactly.
  auto imagenet = Catalog::Find("ImageNet");
  ASSERT_TRUE(imagenet.ok());
  EXPECT_EQ(imagenet->dims, 150);
  EXPECT_EQ(imagenet->paper_n, 2340173);
  EXPECT_EQ(Catalog::Find("MSD")->dims, 420);
  EXPECT_EQ(Catalog::Find("GIST")->dims, 960);
  EXPECT_EQ(Catalog::Find("Trevi")->dims, 4096);
  EXPECT_EQ(Catalog::Find("Year")->dims, 90);
  EXPECT_EQ(Catalog::Find("Notre")->dims, 128);
  EXPECT_EQ(Catalog::Find("NUS-WIDE")->dims, 500);
  EXPECT_EQ(Catalog::Find("Enron")->dims, 1369);
  EXPECT_FALSE(Catalog::Find("nope").ok());
}

TEST(GeneratorTest, ShapeRangeAndDeterminism) {
  const auto spec = Catalog::Find("MSD");
  ASSERT_TRUE(spec.ok());
  const FloatMatrix a = DatasetGenerator::Generate(*spec, 100, 5);
  const FloatMatrix b = DatasetGenerator::Generate(*spec, 100, 5);
  EXPECT_EQ(a.rows(), 100u);
  EXPECT_EQ(a.cols(), 420u);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_GE(a(i, j), 0.0f);
      EXPECT_LE(a(i, j), 1.0f);
      EXPECT_EQ(a(i, j), b(i, j)) << "determinism";
    }
  }
  const FloatMatrix c = DatasetGenerator::Generate(*spec, 100, 6);
  bool any_diff = false;
  for (size_t j = 0; j < a.cols(); ++j) {
    if (a(0, j) != c(0, j)) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "different seeds differ";
}

TEST(GeneratorTest, SparseProfileIsSparse) {
  const auto spec = Catalog::Find("Enron");
  ASSERT_TRUE(spec.ok());
  const FloatMatrix data = DatasetGenerator::Generate(*spec, 200, 9);
  size_t zeros = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    for (float v : data.row(i)) {
      if (v == 0.0f) ++zeros;
    }
  }
  EXPECT_GT(static_cast<double>(zeros) / data.size(), 0.8);
}

TEST(GeneratorTest, QueriesShareRangeAndDims) {
  const auto spec = Catalog::Find("Year");
  ASSERT_TRUE(spec.ok());
  const FloatMatrix data = DatasetGenerator::Generate(*spec, 50, 1);
  const FloatMatrix queries =
      DatasetGenerator::GenerateQueries(*spec, data, 10, 2);
  EXPECT_EQ(queries.rows(), 10u);
  EXPECT_EQ(queries.cols(), data.cols());
  for (size_t i = 0; i < queries.rows(); ++i) {
    for (float v : queries.row(i)) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(SimHashTest, IdenticalVectorsShareCode) {
  const FloatMatrix data = RandomUnitMatrix(2, 32, 3);
  FloatMatrix duplicated(2, 32);
  for (size_t j = 0; j < 32; ++j) {
    duplicated(0, j) = data(0, j);
    duplicated(1, j) = data(0, j);
  }
  const SimHashEncoder encoder(32, 64, 4);
  const BitMatrix codes = encoder.Encode(duplicated);
  EXPECT_EQ(BitMatrix::HammingDistance(codes.row(0), codes.row(1)), 0);
}

TEST(SimHashTest, HammingTracksAngularSimilarity) {
  // Near-duplicates must land closer in Hamming space than random pairs.
  const size_t dims = 64;
  FloatMatrix data(3, dims);
  Rng rng(5);
  for (size_t j = 0; j < dims; ++j) {
    data(0, j) = rng.NextFloat();
    data(1, j) = data(0, j) + 0.01f * rng.NextFloat();  // near-duplicate.
    data(2, j) = rng.NextFloat();                       // unrelated.
  }
  const SimHashEncoder encoder(dims, 512, 6);
  const BitMatrix codes = encoder.Encode(data);
  const int near = BitMatrix::HammingDistance(codes.row(0), codes.row(1));
  const int far = BitMatrix::HammingDistance(codes.row(0), codes.row(2));
  EXPECT_LT(near, far);
}

}  // namespace
}  // namespace pimine
