#include "io/serialization.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "bit_digest.hpp"
#include "io/codec.hpp"
#include "linalg/vector_ops.hpp"
#include "rng/rng.hpp"
#include "scheme/scheme2.hpp"
#include "scheme/split_encryptor.hpp"

namespace aspe::io {
namespace {

std::vector<std::uint64_t> bit_patterns(const Vec& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(Serialization, VecRoundTripPreservesFullPrecision) {
  const Vec v = {1.0, -2.5, 3.141592653589793, 1e-17, -1e300};
  std::stringstream ss;
  detail::write_vec(ss, v);
  EXPECT_EQ(detail::read_vec(ss), v);  // exact, thanks to max_digits10
}

TEST(Serialization, EmptyVec) {
  std::stringstream ss;
  detail::write_vec(ss, {});
  EXPECT_TRUE(detail::read_vec(ss).empty());
}

TEST(Serialization, BitVecRoundTrip) {
  const BitVec v = {1, 0, 1, 1, 0, 0, 1};
  std::stringstream ss;
  detail::write_bitvec(ss, v);
  EXPECT_EQ(detail::read_bitvec(ss), v);
  std::stringstream empty_ss;
  detail::write_bitvec(empty_ss, {});
  EXPECT_TRUE(detail::read_bitvec(empty_ss).empty());
}

TEST(Serialization, MatrixRoundTrip) {
  rng::Rng rng(1);
  linalg::Matrix m(3, 5);
  for (auto& x : m.data()) x = rng.uniform(-10.0, 10.0);
  std::stringstream ss;
  detail::write_matrix(ss, m);
  EXPECT_TRUE(detail::read_matrix(ss).approx_equal(m, 0.0));
}

TEST(Serialization, CipherPairRoundTrip) {
  rng::Rng rng(2);
  scheme::Scheme2Options opt;
  opt.record_dim = 4;
  const scheme::AspeScheme2 scheme(opt, rng);
  const auto cipher = scheme.encrypt_record(rng.uniform_vec(4, -1.0, 1.0), rng);
  std::stringstream ss;
  detail::write_cipher_pair(ss, cipher);
  const auto back = detail::read_cipher_pair(ss);
  EXPECT_EQ(back.a, cipher.a);
  EXPECT_EQ(back.b, cipher.b);
}

TEST(Serialization, EncryptedDatabaseRoundTripPreservesScores) {
  // Persist an encrypted DB, reload it, and verify the server-side scoring
  // still works bit-for-bit — the actual deployment scenario.
  rng::Rng rng(3);
  scheme::Scheme2Options opt;
  opt.record_dim = 5;
  const scheme::AspeScheme2 scheme(opt, rng);
  std::vector<scheme::CipherPair> db;
  std::vector<Vec> records;
  for (int i = 0; i < 8; ++i) {
    records.push_back(rng.uniform_vec(5, -2.0, 2.0));
    db.push_back(scheme.encrypt_record(records.back(), rng));
  }
  std::stringstream ss;
  detail::write_encrypted_database(ss, db);
  const auto loaded = detail::read_encrypted_database(ss);
  ASSERT_EQ(loaded.size(), db.size());

  const auto trapdoor = scheme.encrypt_query(rng.uniform_vec(5, -1.0, 1.0), rng);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_DOUBLE_EQ(scheme::cipher_score(db[i], trapdoor),
                     scheme::cipher_score(loaded[i], trapdoor));
  }
}

TEST(Serialization, MultipleRecordsInOneStream) {
  std::stringstream ss;
  detail::write_vec(ss, {1, 2});
  detail::write_bitvec(ss, {1, 0});
  detail::write_vec(ss, {3});
  EXPECT_EQ(detail::read_vec(ss), (Vec{1, 2}));
  EXPECT_EQ(detail::read_bitvec(ss), (BitVec{1, 0}));
  EXPECT_EQ(detail::read_vec(ss), (Vec{3}));
}

TEST(Serialization, VecListRoundTrip) {
  const std::vector<Vec> vs = {{1, 2}, {3}, {}, {4, 5, 6}};
  std::stringstream ss;
  detail::write_vec_list(ss, vs);
  EXPECT_EQ(detail::read_vec_list(ss), vs);
}

TEST(Serialization, EmptyVecListGivesEmpty) {
  std::stringstream ss("");
  EXPECT_TRUE(detail::read_vec_list(ss).empty());
  std::stringstream ws("   \n\t  ");
  EXPECT_TRUE(detail::read_vec_list(ws).empty());
}

TEST(Serialization, BitVecListRoundTrip) {
  const std::vector<BitVec> vs = {{1, 0, 1}, {0}, {1, 1, 1, 1}};
  std::stringstream ss;
  detail::write_bitvec_list(ss, vs);
  EXPECT_EQ(detail::read_bitvec_list(ss), vs);
}

TEST(Serialization, VecListStopsAtMalformedRecord) {
  std::stringstream ss("vec 2 1 2\nvex 1 3\n");
  EXPECT_THROW(detail::read_vec_list(ss), IoError);
}

TEST(Serialization, MalformedInputThrows) {
  {
    std::stringstream ss("vex 2 1 2");
    EXPECT_THROW(detail::read_vec(ss), IoError);  // wrong tag
  }
  {
    std::stringstream ss("vec -1");
    EXPECT_THROW(detail::read_vec(ss), IoError);  // negative size
  }
  {
    std::stringstream ss("vec 3 1.0 2.0");
    EXPECT_THROW(detail::read_vec(ss), IoError);  // truncated payload
  }
  {
    std::stringstream ss("bits 4 10x0");
    EXPECT_THROW(detail::read_bitvec(ss), IoError);  // non-binary character
  }
  {
    std::stringstream ss("bits 4 101");
    EXPECT_THROW(detail::read_bitvec(ss), IoError);  // length mismatch
  }
  {
    std::stringstream ss("matrix 2 2 1 2 3");
    EXPECT_THROW(detail::read_matrix(ss), IoError);  // truncated
  }
  {
    std::stringstream ss("");
    EXPECT_THROW(detail::read_cipher_pair(ss), IoError);  // empty stream
  }
}

// What the text reader accepts and returns, token by token, next to what
// `std::istream >> double` (the reader the scanner replaced) makes of the
// same token. The scanner takes whitespace-separated tokens whole, so the
// iostream verdict that matches is "extracts a value and consumes the whole
// token". Tokens where iostream stops mid-token (`1.5abc`, `0x1p3`) are the
// one deliberate difference: iostream returned the prefix and left the rest
// for the next read, which then failed, or, as in `vec 1 1.5vec 1 2`, parsed
// as a record of its own; the scanner rejects the token.
TEST(Serialization, TextTokenGrammarMatchesIostream) {
  struct Case {
    std::string token;
    bool accepted;
    double value;
  };
  const std::string long_numeral =
      "0." + std::string(70, '0') + "1234567890123456789";  // 91 chars
  const std::string longer_numeral =
      "1" + std::string(999, '0') + "e-900";  // 1e99, past any fixed buffer
  const std::vector<Case> cases = {
      {"1", true, 1.0},
      {"+1", true, 1.0},  // from_chars alone rejects the '+'
      {"-1", true, -1.0},
      {".5", true, 0.5},
      {"5.", true, 5.0},
      {"1E+05", true, 1e5},
      {"00012", true, 12.0},
      {"-0", true, -0.0},
      {"1e-310", true, 1e-310},  // denormal, exact
      {"1e-400", true, 0.0},     // underflow reads as zero, as strtod did;
      {"-1e-400", true, -0.0},   // from_chars alone reports out of range
      {"1e400", false, 0.0},     // overflow fails in both
      {"-1e400", false, 0.0},
      {"inf", false, 0.0},  // from_chars alone accepts inf and nan
      {"nan", false, 0.0},
      {"-inf", false, 0.0},
      {"e5", false, 0.0},
      {"-", false, 0.0},
      {"+-1", false, 0.0},
      {"1e", false, 0.0},
      {long_numeral, true, 1.234567890123456789e-71},
      {longer_numeral, true, 1e99},
      {"0." + std::string(400, '0') + "5", true, 0.0},  // underflow, no 'e'
      {"1" + std::string(400, '0'), false, 0.0},        // overflow, no 'e'
      {"100e-326", true, 0.0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.token.substr(0, 40));
    std::istringstream ios(c.token);
    double x = 0.0;
    ios >> x;
    const bool whole = !ios.fail() && ios.peek() == EOF;
    EXPECT_EQ(whole, c.accepted);
    if (whole) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x),
                std::bit_cast<std::uint64_t>(c.value));
    }
    std::istringstream in("vec 1 " + c.token + "\n");
    if (c.accepted) {
      const Vec v = detail::read_vec(in);
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(v[0]),
                std::bit_cast<std::uint64_t>(c.value));
    } else {
      EXPECT_THROW((void)detail::read_vec(in), IoError);
      EXPECT_TRUE(in.fail());  // a rejected token sets failbit, as >> did
    }
  }

  // The deliberate difference: iostream reads a prefix, the scanner rejects.
  for (const std::string token : {"1.5abc", "0x1p3"}) {
    SCOPED_TRACE(token);
    std::istringstream ios(token);
    double x = 0.0;
    EXPECT_TRUE(ios >> x);
    EXPECT_NE(ios.peek(), EOF);
    std::istringstream in("vec 1 " + token + "\n");
    EXPECT_THROW((void)detail::read_vec(in), IoError);
  }
  std::istringstream spliced("vec 1 1.5vec 1 2\n");
  EXPECT_THROW((void)detail::read_vec_list(spliced), IoError);

  // Sizes: an optional sign and digits, as `std::istream >> long long` on a
  // whole token; negative counts fail as before. A size with a point was
  // once read as its integer part, with ".0" left over as the first element.
  const std::vector<std::pair<std::string, bool>> sizes = {
      {"1", true},    {"+1", true},  {"01", true},
      {"-1", false},  {"1.0", false}, {"1x", false},
      {"99999999999999999999", false}};
  for (const auto& [token, accepted] : sizes) {
    SCOPED_TRACE(token);
    std::istringstream in("vec " + token + " 7\n");
    if (accepted) {
      EXPECT_EQ(detail::read_vec(in), (Vec{7.0}));
    } else {
      EXPECT_THROW((void)detail::read_vec(in), IoError);
    }
  }
}

// A token longer than the scanner's fixed buffer grows a string only as far
// as the stream delivers, and state bits follow operator>>: end of input sets
// eofbit, and a drained stream yields nothing until it is cleared.
TEST(Serialization, ScannerLongTokensAndStreamState) {
  const std::string digits(100000, '1');
  std::istringstream huge("vec 1 " + digits + "x");
  EXPECT_THROW((void)detail::read_vec(huge), IoError);

  std::istringstream is("vec 2 1 2");  // no trailing newline
  EXPECT_EQ(detail::read_vec(is), (Vec{1.0, 2.0}));
  EXPECT_TRUE(is.eof());
  EXPECT_FALSE(is.fail());
  detail::Scanner in(is);
  EXPECT_TRUE(in.token().empty());
  EXPECT_TRUE(is.fail());
  is.clear();
  is.str("vec 1 3\n");
  EXPECT_EQ(detail::read_vec(is), (Vec{3.0}));
  EXPECT_FALSE(is.eof());
}

// The text writer's exact bytes for a fixed corpus, pinned as an FNV-1a
// digest recorded from the iostream-based writer (precision(17), operator<<)
// that the <charconv> writer replaced: a split-encryption database and
// trapdoor set, the key's split string and M1, and a vec of edge values.
// Every value must also read back bit for bit, -0 and denormals included.
TEST(Codec, TextWriterBytesPinned) {
  rng::Rng rng(2026);
  const scheme::SplitEncryptor key(8, rng);
  std::vector<scheme::CipherPair> db;
  for (int i = 0; i < 12; ++i) {
    db.push_back(key.encrypt_index(rng.uniform_vec(8, -3.0, 3.0), rng));
  }
  std::vector<scheme::CipherPair> trapdoors;
  for (int i = 0; i < 4; ++i) {
    trapdoors.push_back(
        key.encrypt_trapdoor(rng.uniform_vec(8, -1.0, 1.0), rng));
  }
  using limits = std::numeric_limits<double>;
  const Vec edges = {0.1,         1e-310,          -0.0,
                     1e308,       -1e-5,           123456789.123456789,
                     0.0,         limits::denorm_min(), limits::max(),
                     limits::lowest(), limits::min(), 1e16,
                     1e17,        -2.5e-200,       1.0};

  std::stringstream ss;
  {
    auto w = TextCodec::writer(ss);
    w->write_cipher_database(db);
    w->write_cipher_database(trapdoors);
    w->write_bitvec(key.split_string());
    w->write_matrix(key.m1());
    w->write_vec(edges);
    w->write_vec({});
    w->finish();
  }
  pinning::Fnv1a digest;
  digest.add_bytes(ss.str());
  EXPECT_EQ(digest.h, 0x7fb926bc26243da7ull) << std::hex << "0x" << digest.h;

  auto reader = TextCodec::reader(ss);
  for (const auto* expect : {&db, &trapdoors}) {
    for (const auto& c : *expect) {
      const auto rec = reader->read_next();
      ASSERT_TRUE(rec.has_value());
      ASSERT_EQ(rec->kind, RecordKind::CipherPair);
      EXPECT_EQ(bit_patterns(rec->cipher.a), bit_patterns(c.a));
      EXPECT_EQ(bit_patterns(rec->cipher.b), bit_patterns(c.b));
    }
  }
  auto rec = reader->read_next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->bits, key.split_string());
  rec = reader->read_next();
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->kind, RecordKind::Matrix);
  EXPECT_EQ(bit_patterns(rec->matrix.data()), bit_patterns(key.m1().data()));
  rec = reader->read_next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(bit_patterns(rec->vec), bit_patterns(edges));
  rec = reader->read_next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->vec.empty());
  EXPECT_FALSE(reader->read_next().has_value());
}

}  // namespace
}  // namespace aspe::io
