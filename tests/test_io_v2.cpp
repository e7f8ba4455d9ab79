// The io::v2 binary container: codec round-trips, envelope validation
// against malformed input, Format::Auto sniffing, and the zero-copy
// MappedCorpus path (mapped views must feed the kernels bit-identically to
// the owned text-path objects).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "core/snmf_attack.hpp"
#include "io/codec.hpp"
#include "io/mmap_file.hpp"
#include "io/serialization.hpp"
#include "linalg/kernels.hpp"
#include "obs/sinks.hpp"
#include "rng/rng.hpp"

namespace aspe::io {
namespace {

namespace fs = std::filesystem;

std::string write_binary(const std::function<void(CorpusWriter&)>& fill) {
  std::ostringstream os(std::ios::binary);
  auto w = BinaryCodec::writer(os);
  fill(*w);
  w->finish();
  return os.str();
}

std::vector<Vec> random_vecs(std::size_t n, std::size_t d, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<Vec> vs;
  vs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    vs.push_back(rng.uniform_vec(d, -5.0, 5.0));
  }
  return vs;
}

std::vector<scheme::CipherPair> random_db(std::size_t n, std::size_t da,
                                          std::size_t db, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<scheme::CipherPair> out(n);
  for (auto& c : out) {
    c.a = rng.uniform_vec(da, -3.0, 3.0);
    c.b = rng.uniform_vec(db, -3.0, 3.0);
  }
  return out;
}

TEST(Codec, VecListUniformRoundTripIsExact) {
  const auto vs = random_vecs(17, 9, 1);
  const std::string blob = write_binary([&](CorpusWriter& w) {
    for (const auto& v : vs) w.write_vec(v);
  });
  std::istringstream is(blob, std::ios::binary);
  EXPECT_EQ(BinaryCodec::reader(is)->read_vecs(), vs);
}

TEST(Codec, VecListRaggedRoundTrip) {
  const std::vector<Vec> vs = {{1.5, -2.0, 3.0}, {}, {7.25}, {1e-300, 1e300}};
  const std::string blob = write_binary([&](CorpusWriter& w) {
    for (const auto& v : vs) w.write_vec(v);
  });
  std::istringstream is(blob, std::ios::binary);
  EXPECT_EQ(BinaryCodec::reader(is)->read_vecs(), vs);
}

TEST(Codec, BitVecListRoundTrips) {
  const std::vector<BitVec> uniform = {{1, 0, 1}, {0, 1, 1}, {1, 1, 0}};
  const std::vector<BitVec> ragged = {{1, 0}, {}, {0, 1, 1, 1}};
  for (const auto& vs : {uniform, ragged}) {
    const std::string blob = write_binary([&](CorpusWriter& w) {
      for (const auto& v : vs) w.write_bitvec(v);
    });
    std::istringstream is(blob, std::ios::binary);
    EXPECT_EQ(BinaryCodec::reader(is)->read_bitvecs(), vs);
  }
}

TEST(Codec, MatrixRoundTripIsBitwise) {
  rng::Rng rng(2);
  linalg::Matrix m(6, 11);
  for (auto& x : m.data()) x = rng.uniform(-10.0, 10.0);
  const std::string blob =
      write_binary([&](CorpusWriter& w) { w.write_matrix(m); });
  std::istringstream is(blob, std::ios::binary);
  const linalg::Matrix back = BinaryCodec::reader(is)->read_matrix();
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  EXPECT_EQ(std::memcmp(back.data().data(), m.data().data(),
                        m.data().size() * sizeof(double)),
            0);
}

/// A stream buffer over a string that cannot seek and hands out at most
/// 1000 bytes per refill, like a pipe.
class PipeBuf final : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (pos_ >= bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(1000, bytes_.size() - pos_);
    char* base = bytes_.data() + pos_;
    setg(base, base, base + n);
    pos_ += n;
    return traits_type::to_int_type(*base);
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

TEST(Codec, BinaryReaderReadsStreamsThatCannotSeek) {
  // Larger than one read chunk, so the unseekable path appends several.
  rng::Rng rng(4);
  linalg::Matrix m(160, 100);
  for (auto& x : m.data()) x = rng.uniform(-10.0, 10.0);
  const std::string blob =
      write_binary([&](CorpusWriter& w) { w.write_matrix(m); });
  ASSERT_GT(blob.size(), std::size_t{1} << 16);
  PipeBuf pipe(blob);
  std::istream is(&pipe);
  ASSERT_EQ(is.tellg(), std::streampos(std::streamoff(-1)));  // no seeking
  const linalg::Matrix back = BinaryCodec::reader(is)->read_matrix();
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  EXPECT_EQ(std::memcmp(back.data().data(), m.data().data(),
                        m.data().size() * sizeof(double)),
            0);
  // Truncation is rejected the same way whether or not the stream seeks.
  for (const std::size_t keep : {blob.size() - 1, std::size_t{10}}) {
    PipeBuf cut(blob.substr(0, keep));
    std::istream cut_is(&cut);
    EXPECT_THROW((void)BinaryCodec::reader(cut_is), IoError) << keep;
  }
}

TEST(Codec, CipherDatabaseBinaryMatchesTextPathBitwise) {
  const auto db = random_db(12, 7, 5, 3);

  std::stringstream text;
  {
    auto w = TextCodec::writer(text);
    w->write_cipher_database(db);
    w->finish();
  }
  const auto from_text = TextCodec::reader(text)->read_cipher_database();

  const std::string blob =
      write_binary([&](CorpusWriter& w) { w.write_cipher_database(db); });
  std::istringstream is(blob, std::ios::binary);
  const auto from_bin = BinaryCodec::reader(is)->read_cipher_database();

  ASSERT_EQ(from_text.size(), db.size());
  ASSERT_EQ(from_bin.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    // max_digits10 text and raw binary must both reproduce the doubles
    // exactly, so the two load paths are interchangeable bit for bit.
    EXPECT_EQ(from_text[i].a, from_bin[i].a);
    EXPECT_EQ(from_text[i].b, from_bin[i].b);
    EXPECT_EQ(from_bin[i].a, db[i].a);
    EXPECT_EQ(from_bin[i].b, db[i].b);
  }
}

TEST(Codec, EmptyContainersRoundTrip) {
  {
    const std::string blob = write_binary([](CorpusWriter&) {});
    std::istringstream is(blob, std::ios::binary);
    EXPECT_TRUE(BinaryCodec::reader(is)->read_vecs().empty());
  }
  {
    const std::string blob = write_binary(
        [](CorpusWriter& w) { w.write_cipher_database({}); });
    std::istringstream is(blob, std::ios::binary);
    EXPECT_TRUE(BinaryCodec::reader(is)->read_cipher_database().empty());
  }
}

TEST(Codec, AutoSniffsBinaryAndFallsBackToText) {
  const auto vs = random_vecs(4, 3, 5);
  const std::string blob = write_binary([&](CorpusWriter& w) {
    for (const auto& v : vs) w.write_vec(v);
  });
  std::istringstream bin(blob, std::ios::binary);
  EXPECT_TRUE(sniff_binary(bin));
  EXPECT_EQ(open_reader(bin)->read_vecs(), vs);

  std::stringstream text;
  {
    auto w = TextCodec::writer(text);
    for (const auto& v : vs) w->write_vec(v);
    w->finish();
  }
  EXPECT_FALSE(sniff_binary(text));
  EXPECT_EQ(open_reader(text)->read_vecs(), vs);
}

TEST(Codec, TextReaderStreamsFramedDatabaseAsRecords) {
  const auto db = random_db(3, 4, 2, 6);
  std::stringstream text;
  {
    auto w = TextCodec::writer(text);
    w->write_cipher_database(db);
    w->finish();
  }
  auto r = TextCodec::reader(text);
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto rec = r->read_next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->kind, RecordKind::CipherPair);
    EXPECT_EQ(rec->cipher.a, db[i].a);
  }
  EXPECT_FALSE(r->read_next().has_value());
}

TEST(Codec, BinaryWriterRejectsMixedRecordKinds) {
  std::ostringstream os(std::ios::binary);
  auto w = BinaryCodec::writer(os);
  w->write_vec({1.0});
  EXPECT_THROW(w->write_bitvec({1}), IoError);
}

TEST(Codec, WriterFactoriesRejectAutoFormat) {
  std::ostringstream os;
  EXPECT_THROW((void)open_writer(os, Format::Auto), Error);
}

TEST(Codec, ParseFormatFlagValues) {
  EXPECT_EQ(parse_format("text"), Format::Text);
  EXPECT_EQ(parse_format("bin"), Format::Binary);
  EXPECT_EQ(parse_format("binary"), Format::Binary);
  EXPECT_EQ(parse_format("auto", /*allow_auto=*/true), Format::Auto);
  EXPECT_THROW((void)parse_format("auto"), InvalidArgument);
  EXPECT_THROW((void)parse_format("json"), InvalidArgument);
}

// ------------------------------------------------------- envelope hardening

/// A valid one-matrix container to mutate.
std::string valid_blob() {
  linalg::Matrix m(2, 3);
  for (std::size_t i = 0; i < 6; ++i) m.data()[i] = static_cast<double>(i);
  return write_binary([&](CorpusWriter& w) { w.write_matrix(m); });
}

void expect_rejected(std::string blob) {
  std::istringstream is(blob, std::ios::binary);
  EXPECT_THROW((void)BinaryCodec::reader(is), IoError);
}

TEST(IoV2, RejectsBadMagic) {
  std::string blob = valid_blob();
  blob[0] = 'X';
  expect_rejected(blob);
}

TEST(IoV2, RejectsWrongVersion) {
  std::string blob = valid_blob();
  const std::uint32_t v = 99;
  std::memcpy(blob.data() + 8, &v, sizeof(v));
  expect_rejected(blob);
}

TEST(IoV2, RejectsForeignEndianness) {
  std::string blob = valid_blob();
  // A foreign-endian writer stores the tag byte-reversed relative to us.
  std::swap(blob[12], blob[15]);
  std::swap(blob[13], blob[14]);
  expect_rejected(blob);
}

TEST(IoV2, RejectsTruncatedFile) {
  const std::string blob = valid_blob();
  expect_rejected(blob.substr(0, blob.size() - 1));
  expect_rejected(blob.substr(0, v2::kHeaderBytes + 4));
  expect_rejected(blob.substr(0, 10));  // shorter than the header
}

TEST(IoV2, RejectsNonzeroReservedBytes) {
  std::string blob = valid_blob();
  blob[56] = 1;
  expect_rejected(blob);
}

TEST(IoV2, RejectsMisalignedSectionOffset) {
  std::string blob = valid_blob();
  // Section entry starts at the table offset (64); nudge its payload offset
  // off the 64-byte grid.
  std::uint64_t offset = 0;
  std::memcpy(&offset, blob.data() + 64, sizeof(offset));
  offset += 8;
  std::memcpy(blob.data() + 64, &offset, sizeof(offset));
  expect_rejected(blob);
}

TEST(IoV2, RejectsShapeByteSizeDisagreement) {
  std::string blob = valid_blob();
  std::uint64_t rows = 7;  // claims 7x3 but bytes still say 2x3
  std::memcpy(blob.data() + 64 + 16, &rows, sizeof(rows));
  expect_rejected(blob);
}

TEST(IoV2, RejectsOverflowingShapeWithoutAllocating) {
  std::string blob = valid_blob();
  // rows * cols * 8 overflows size_t: the overflow-checked validation must
  // throw IoError before any allocation is sized from these fields.
  const std::uint64_t huge = std::uint64_t{1} << 62;
  std::memcpy(blob.data() + 64 + 16, &huge, sizeof(huge));
  std::memcpy(blob.data() + 64 + 24, &huge, sizeof(huge));
  expect_rejected(blob);
}

TEST(IoV2, RejectsSectionTableBeyondFile) {
  std::string blob = valid_blob();
  const std::uint64_t count = 1000;
  std::memcpy(blob.data() + 24, &count, sizeof(count));
  expect_rejected(blob);
}

// ------------------------------------------------------------ mapped corpus

class MappedCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aspe_io_v2_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string write_file(const std::string& name,
                         const std::function<void(CorpusWriter&)>& fill) {
    const std::string p = path(name);
    auto w = BinaryCodec::writer(p);
    fill(*w);
    w->finish();
    return p;
  }

  fs::path dir_;
};

TEST_F(MappedCorpusTest, MatrixViewIsBitIdentical) {
  rng::Rng rng(7);
  linalg::Matrix m(5, 9);
  for (auto& x : m.data()) x = rng.uniform(-1.0, 1.0);
  const MappedCorpus corpus(
      write_file("m.aspeio", [&](CorpusWriter& w) { w.write_matrix(m); }));
  const auto view = corpus.matrix();
  ASSERT_EQ(view.rows(), m.rows());
  ASSERT_EQ(view.cols(), m.cols());
  EXPECT_EQ(std::memcmp(view.data(), m.data().data(),
                        m.data().size() * sizeof(double)),
            0);
  // Payloads start 64-byte aligned, as the packed kernels expect.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.data()) % 64, 0u);
}

TEST_F(MappedCorpusTest, MaterializersMatchWrittenObjects) {
  const auto vs = random_vecs(6, 4, 8);
  const std::vector<BitVec> bits = {{1, 0, 1, 1}, {0, 0, 1, 0}};
  const auto db = random_db(5, 3, 2, 9);

  const MappedCorpus vcorp(write_file("v.aspeio", [&](CorpusWriter& w) {
    for (const auto& v : vs) w.write_vec(v);
  }));
  EXPECT_EQ(vcorp.to_vecs(), vs);

  const MappedCorpus bcorp(write_file("b.aspeio", [&](CorpusWriter& w) {
    for (const auto& v : bits) w.write_bitvec(v);
  }));
  EXPECT_EQ(bcorp.to_bitvecs(), bits);

  const MappedCorpus ccorp(write_file(
      "c.aspeio", [&](CorpusWriter& w) { w.write_cipher_database(db); }));
  const auto back = ccorp.to_cipher_database();
  ASSERT_EQ(back.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(back[i].a, db[i].a);
    EXPECT_EQ(back[i].b, db[i].b);
  }
}

TEST_F(MappedCorpusTest, MappedHalvesFeedScoreGemmsBitIdentically) {
  // The alias test: building the score matrix from mapped zero-copy views
  // must equal the in-core object path bit for bit.
  const auto indexes = random_db(23, 6, 4, 10);
  const auto trapdoors = random_db(17, 6, 4, 11);
  const MappedCorpus icorp(write_file("idx.aspeio", [&](CorpusWriter& w) {
    w.write_cipher_database(indexes);
  }));
  const MappedCorpus tcorp(write_file("trap.aspeio", [&](CorpusWriter& w) {
    w.write_cipher_database(trapdoors);
  }));

  const linalg::Matrix from_objects =
      core::build_score_matrix(indexes, trapdoors);
  const linalg::Matrix from_mapped = core::build_score_matrix(
      icorp.a_half(), icorp.b_half(), tcorp.a_half(), tcorp.b_half());
  ASSERT_EQ(from_mapped.rows(), from_objects.rows());
  ASSERT_EQ(from_mapped.cols(), from_objects.cols());
  EXPECT_EQ(std::memcmp(from_mapped.data().data(),
                        from_objects.data().data(),
                        from_objects.data().size() * sizeof(double)),
            0);
}

TEST_F(MappedCorpusTest, MappedScoreMatrixRanksLikeOwnedOne) {
  // estimate_latent_dimension over a mapped view must agree with the owned
  // matrix on both SVD paths (small = full Jacobi, large = truncated).
  rng::Rng rng(12);
  for (const std::size_t n : {40UL, 140UL}) {
    const std::size_t d = 5;
    linalg::Matrix w(n, d), h(d, n);
    for (auto& x : w.data()) x = rng.uniform(0.0, 1.0);
    for (auto& x : h.data()) x = rng.uniform(0.0, 1.0);
    linalg::Matrix scores(n, n);
    linalg::gemm(1.0, w.cview(), linalg::Op::None, h.cview(),
                 linalg::Op::None, 0.0, scores.view(), 1);
    const MappedCorpus corpus(
        write_file("s" + std::to_string(n) + ".aspeio",
                   [&](CorpusWriter& w2) { w2.write_matrix(scores); }));
    const std::size_t owned = core::estimate_latent_dimension(scores);
    const std::size_t mapped =
        core::estimate_latent_dimension(corpus.matrix());
    EXPECT_EQ(owned, d);
    EXPECT_EQ(mapped, owned);
  }
}

TEST_F(MappedCorpusTest, RejectsTruncatedFileAndAccountsMmapBytes) {
  const auto db = random_db(4, 3, 2, 13);
  const std::string p = write_file(
      "t.aspeio", [&](CorpusWriter& w) { w.write_cipher_database(db); });

  obs::MemorySink sink;
  {
    obs::ScopedRecording rec(&sink);
    const MappedCorpus corpus(p);
    EXPECT_EQ(corpus.record_count(), db.size());
  }
  EXPECT_GT(sink.counter("io.mmap_bytes"), 0.0);

  // Chop the tail off: the header's file-size field must catch it.
  const auto size = fs::file_size(p);
  fs::resize_file(p, size - 8);
  EXPECT_THROW((void)MappedCorpus(p), IoError);
}

TEST(Serialization, OverflowingTextDimensionsRejectedWithoutAllocating) {
  {
    // 2^62 x 2^62 elements overflows size_t multiplication; must throw
    // IoError from the checked guard, not attempt an allocation.
    std::stringstream ss(
        "matrix 4611686018427387904 4611686018427387904 1 2 3");
    EXPECT_THROW((void)detail::read_matrix(ss), IoError);
  }
  {
    // A lying element count caps the eager reserve and fails cleanly on the
    // missing payload.
    std::stringstream ss("vec 9999999999 1.0");
    EXPECT_THROW((void)detail::read_vec(ss), IoError);
  }
}

}  // namespace
}  // namespace aspe::io
