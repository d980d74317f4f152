#include "tuple/serde.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace spear {
namespace {

TEST(SerdeTest, RoundTripMixedFields) {
  const Tuple original(
      12345, {Value(std::int64_t{-7}), Value(3.14159), Value("route-42")});
  std::string encoded;
  EncodeTuple(original, &encoded);
  std::size_t offset = 0;
  auto decoded = DecodeTuple(encoded, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
  EXPECT_EQ(offset, encoded.size());
}

TEST(SerdeTest, RoundTripEmptyTuple) {
  const Tuple original(0, std::vector<Value>{});
  std::string encoded;
  EncodeTuple(original, &encoded);
  std::size_t offset = 0;
  auto decoded = DecodeTuple(encoded, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_fields(), 0u);
}

TEST(SerdeTest, RoundTripEmptyString) {
  const Tuple original(1, {Value(std::string())});
  std::string encoded;
  EncodeTuple(original, &encoded);
  std::size_t offset = 0;
  auto decoded = DecodeTuple(encoded, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(SerdeTest, MultipleTuplesSequential) {
  std::string encoded;
  EncodeTuple(Tuple(1, {Value(std::int64_t{1})}), &encoded);
  EncodeTuple(Tuple(2, {Value(2.0)}), &encoded);
  std::size_t offset = 0;
  auto first = DecodeTuple(encoded, &offset);
  auto second = DecodeTuple(encoded, &offset);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->event_time(), 1);
  EXPECT_EQ(second->event_time(), 2);
  EXPECT_EQ(offset, encoded.size());
}

TEST(SerdeTest, TruncatedInputRejected) {
  std::string encoded;
  EncodeTuple(Tuple(1, {Value("hello")}), &encoded);
  for (std::size_t cut : {1u, 8u, 12u, 13u}) {
    ASSERT_LT(cut, encoded.size());
    const std::string partial = encoded.substr(0, encoded.size() - cut);
    std::size_t offset = 0;
    EXPECT_TRUE(DecodeTuple(partial, &offset).status().IsInvalid())
        << "cut=" << cut;
  }
}

TEST(SerdeTest, CorruptTypeTagRejected) {
  std::string encoded;
  EncodeTuple(Tuple(1, {Value(std::int64_t{9})}), &encoded);
  encoded[12] = 0x7F;  // the field's type tag (after i64 time + u32 count)
  std::size_t offset = 0;
  EXPECT_TRUE(DecodeTuple(encoded, &offset).status().IsInvalid());
}

TEST(SerdeTest, BatchRoundTrip) {
  Rng rng(1);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.emplace_back(
        i, std::vector<Value>{Value(static_cast<std::int64_t>(i)),
                              Value(rng.NextDouble()),
                              Value(std::string("k").append(
                                  std::to_string(i % 7)))});
  }
  auto decoded = DecodeBatch(EncodeBatch(tuples));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ((*decoded)[i], tuples[i]);
  }
}

TEST(SerdeTest, BatchTrailingBytesRejected) {
  std::string data = EncodeBatch({Tuple(1, {Value(1.0)})});
  data += "x";
  EXPECT_TRUE(DecodeBatch(data).status().IsInvalid());
}

TEST(SerdeTest, EmptyBatch) {
  auto decoded = DecodeBatch(EncodeBatch({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

}  // namespace
}  // namespace spear
