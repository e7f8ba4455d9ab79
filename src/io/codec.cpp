#include "io/codec.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/stopwatch.hpp"
#include "io/serialization.hpp"
#include "obs/obs.hpp"

namespace aspe::io {

// ------------------------------------------------------------- v2 envelope

namespace v2 {

namespace {

template <class T>
void put(unsigned char* buf, std::size_t offset, T value) {
  std::memcpy(buf + offset, &value, sizeof(T));
}

template <class T>
[[nodiscard]] T get(const unsigned char* buf, std::size_t offset) {
  T value;
  std::memcpy(&value, buf + offset, sizeof(T));
  return value;
}

}  // namespace

void encode_header(unsigned char* buf, const Header& h) {
  std::memset(buf, 0, kHeaderBytes);
  std::memcpy(buf, kMagic, sizeof(kMagic));
  put<std::uint32_t>(buf, 8, h.version);
  put<std::uint32_t>(buf, 12, kEndianTag);
  put<std::uint32_t>(buf, 16, static_cast<std::uint32_t>(h.kind));
  put<std::uint32_t>(buf, 20, static_cast<std::uint32_t>(h.dtype));
  put<std::uint64_t>(buf, 24, h.section_count);
  put<std::uint64_t>(buf, 32, h.table_offset);
  put<std::uint64_t>(buf, 40, h.file_bytes);
  put<std::uint64_t>(buf, 48, h.record_count);
}

void encode_section(unsigned char* buf, const SectionEntry& s) {
  put<std::uint64_t>(buf, 0, s.offset);
  put<std::uint64_t>(buf, 8, s.bytes);
  put<std::uint64_t>(buf, 16, s.rows);
  put<std::uint64_t>(buf, 24, s.cols);
}

Header decode_header(const unsigned char* buf, std::size_t actual_bytes) {
  if (std::memcmp(buf, kMagic, sizeof(kMagic)) != 0) {
    throw IoError("io::v2: bad magic (not a binary corpus file)");
  }
  Header h;
  h.version = get<std::uint32_t>(buf, 8);
  if (h.version != kVersion) {
    throw IoError("io::v2: unsupported format version " +
                  std::to_string(h.version));
  }
  const auto endian = get<std::uint32_t>(buf, 12);
  if (endian != kEndianTag) {
    throw IoError(
        "io::v2: endianness tag mismatch (file written on a foreign-endian "
        "host)");
  }
  const auto kind = get<std::uint32_t>(buf, 16);
  if (kind < 1 || kind > 5) {
    throw IoError("io::v2: unknown content kind " + std::to_string(kind));
  }
  h.kind = static_cast<ContentKind>(kind);
  const auto dtype = get<std::uint32_t>(buf, 20);
  if (dtype < 1 || dtype > 2) {
    throw IoError("io::v2: unknown dtype " + std::to_string(dtype));
  }
  h.dtype = static_cast<DType>(dtype);
  h.section_count = get<std::uint64_t>(buf, 24);
  h.table_offset = get<std::uint64_t>(buf, 32);
  h.file_bytes = get<std::uint64_t>(buf, 40);
  h.record_count = get<std::uint64_t>(buf, 48);
  if (get<std::uint64_t>(buf, 56) != 0) {
    throw IoError("io::v2: reserved header bytes not zero");
  }
  if (h.table_offset != kHeaderBytes) {
    throw IoError("io::v2: section table must follow the header");
  }
  if (actual_bytes != 0 && h.file_bytes != actual_bytes) {
    throw IoError("io::v2: truncated file (header claims " +
                  std::to_string(h.file_bytes) + " bytes, file holds " +
                  std::to_string(actual_bytes) + ")");
  }
  // Bounded section count: the table itself must fit inside the file.
  const std::size_t table_bytes = checked_mul(
      static_cast<std::size_t>(h.section_count), kSectionEntryBytes,
      "io::v2 section table");
  if (checked_add(h.table_offset, table_bytes, "io::v2 section table") >
      h.file_bytes) {
    throw IoError("io::v2: section table exceeds file size");
  }
  return h;
}

std::vector<SectionEntry> decode_section_table(const unsigned char* table,
                                               const Header& h) {
  std::vector<SectionEntry> sections(h.section_count);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const unsigned char* e = table + i * kSectionEntryBytes;
    sections[i] = {get<std::uint64_t>(e, 0), get<std::uint64_t>(e, 8),
                   get<std::uint64_t>(e, 16), get<std::uint64_t>(e, 24)};
  }
  return sections;
}

void validate_sections(const Header& h,
                       const std::vector<SectionEntry>& sections) {
  const std::size_t elem = dtype_bytes(h.dtype);
  for (const auto& s : sections) {
    if (s.offset % kPayloadAlign != 0) {
      throw IoError("io::v2: payload section not 64-byte aligned");
    }
    const std::size_t expect = checked_mul(
        checked_mul(s.rows, s.cols, "io::v2 section shape"), elem,
        "io::v2 section bytes");
    if (s.bytes != expect) {
      throw IoError("io::v2: section byte size disagrees with its shape");
    }
    if (checked_add(s.offset, s.bytes, "io::v2 section extent") >
        h.file_bytes) {
      throw IoError("io::v2: payload section exceeds file size");
    }
  }
  switch (h.kind) {
    case ContentKind::Matrix:
    case ContentKind::ScoreMatrix:
      if (sections.size() != 1 || h.dtype != DType::F64) {
        throw IoError("io::v2: matrix container wants one f64 section");
      }
      break;
    case ContentKind::CipherDatabase:
      if (sections.size() != 2 || h.dtype != DType::F64) {
        throw IoError(
            "io::v2: cipher database wants two f64 sections (a/b halves)");
      }
      if (sections[0].rows != h.record_count ||
          sections[1].rows != h.record_count) {
        throw IoError(
            "io::v2: cipher half row counts disagree with the record count");
      }
      break;
    case ContentKind::VecList:
    case ContentKind::BitVecList: {
      const DType want =
          h.kind == ContentKind::VecList ? DType::F64 : DType::U8;
      if (h.dtype != want) {
        throw IoError("io::v2: vector list dtype mismatch");
      }
      if (sections.size() == 1 && h.record_count == sections[0].rows) {
        break;  // uniform: one record per row
      }
      if (sections.size() != h.record_count) {
        throw IoError(
            "io::v2: ragged vector list wants one section per record");
      }
      for (const auto& s : sections) {
        if (s.rows != 1) {
          throw IoError("io::v2: ragged vector sections must be single rows");
        }
      }
      break;
    }
  }
}

}  // namespace v2

// ------------------------------------------------------------- base class

std::vector<Vec> CorpusReader::read_vecs() {
  Stopwatch watch;
  std::vector<Vec> out;
  while (auto r = read_next()) {
    if (r->kind != RecordKind::Vec) {
      throw IoError("corpus: expected vec records");
    }
    out.push_back(std::move(r->vec));
  }
  obs::counter_add("io.parse_seconds", watch.seconds());
  return out;
}

std::vector<BitVec> CorpusReader::read_bitvecs() {
  Stopwatch watch;
  std::vector<BitVec> out;
  while (auto r = read_next()) {
    if (r->kind != RecordKind::BitVec) {
      throw IoError("corpus: expected bits records");
    }
    out.push_back(std::move(r->bits));
  }
  obs::counter_add("io.parse_seconds", watch.seconds());
  return out;
}

std::vector<scheme::CipherPair> CorpusReader::read_cipher_database() {
  Stopwatch watch;
  std::vector<scheme::CipherPair> out;
  while (auto r = read_next()) {
    if (r->kind != RecordKind::CipherPair) {
      throw IoError("corpus: expected cipher records");
    }
    out.push_back(std::move(r->cipher));
  }
  obs::counter_add("io.parse_seconds", watch.seconds());
  return out;
}

linalg::Matrix CorpusReader::read_matrix() {
  Stopwatch watch;
  auto r = read_next();
  if (!r || r->kind != RecordKind::Matrix) {
    throw IoError("corpus: expected a matrix record");
  }
  obs::counter_add("io.parse_seconds", watch.seconds());
  return std::move(r->matrix);
}

void CorpusWriter::write_record(const Record& r) {
  switch (r.kind) {
    case RecordKind::Vec: write_vec(r.vec); break;
    case RecordKind::BitVec: write_bitvec(r.bits); break;
    case RecordKind::Matrix: write_matrix(r.matrix); break;
    case RecordKind::CipherPair: write_cipher_database({r.cipher}); break;
  }
}

// -------------------------------------------------------------- text codec

namespace {

class TextReader final : public CorpusReader {
 public:
  explicit TextReader(std::istream& is) : is_(&is) {}
  explicit TextReader(const std::string& path)
      : file_(std::make_unique<std::ifstream>(path)), is_(file_.get()) {
    if (!*file_) throw IoError("cannot open input file: " + path);
  }

  std::optional<Record> read_next() override {
    detail::Scanner in(*is_);
    while (true) {
      if (pending_pairs_ > 0) {
        --pending_pairs_;
        Record r;
        r.kind = RecordKind::CipherPair;
        in.expect("cipher");
        r.cipher = detail::read_cipher_pair_body(in);
        return r;
      }
      const std::string_view tag = in.token();
      if (tag.empty()) return std::nullopt;
      Record r;
      if (tag == "vec") {
        r.kind = RecordKind::Vec;
        r.vec = detail::read_vec_body(in);
      } else if (tag == "bits") {
        r.kind = RecordKind::BitVec;
        r.bits = detail::read_bitvec_body(in);
      } else if (tag == "matrix") {
        r.kind = RecordKind::Matrix;
        r.matrix = detail::read_matrix_body(in);
      } else if (tag == "cipher") {
        r.kind = RecordKind::CipherPair;
        r.cipher = detail::read_cipher_pair_body(in);
      } else if (tag == "encrypted_db") {
        // The frame only announces the count; loop back for the records
        // themselves (an empty database frames zero of them).
        pending_pairs_ = in.size("encrypted_db");
        continue;
      } else {
        throw IoError("unknown record tag '" + std::string(tag) + "'");
      }
      return r;
    }
  }

  bool refresh() override {
    // A reader that drained the stream carries a sticky eof/fail state;
    // clear it and peek so records appended to the file since then parse.
    is_->clear();
    is_->peek();
    if (is_->eof()) {
      is_->clear();
      return false;
    }
    return is_->good();
  }

 private:
  std::unique_ptr<std::ifstream> file_;
  std::istream* is_;
  std::size_t pending_pairs_ = 0;
};

class TextWriter final : public CorpusWriter {
 public:
  explicit TextWriter(std::ostream& os) : os_(&os) {}
  explicit TextWriter(const std::string& path)
      : file_(std::make_unique<std::ofstream>(path)), os_(file_.get()) {
    if (!*file_) throw IoError("cannot open output file: " + path);
  }

  void write_vec(const Vec& v) override { detail::write_vec(*os_, v); }
  void write_bitvec(const BitVec& v) override {
    detail::write_bitvec(*os_, v);
  }
  void write_matrix(const linalg::Matrix& m) override {
    detail::write_matrix(*os_, m);
  }
  void write_cipher_database(
      const std::vector<scheme::CipherPair>& db) override {
    detail::write_encrypted_database(*os_, db);
  }
  void finish() override {
    os_->flush();
    if (!*os_) throw IoError("text corpus write failed");
  }

 private:
  std::unique_ptr<std::ofstream> file_;
  std::ostream* os_;
};

// ------------------------------------------------------------ binary codec

/// Buffer the record stream, lay the container out at finish(): header,
/// section table, then 64-byte-aligned payload sections in order.
class BinaryWriter final : public CorpusWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(&os) {}
  explicit BinaryWriter(const std::string& path)
      : file_(std::make_unique<std::ofstream>(path, std::ios::binary)),
        os_(file_.get()) {
    if (!*file_) throw IoError("cannot open output file: " + path);
  }

  void write_vec(const Vec& v) override {
    set_kind(v2::ContentKind::VecList);
    vecs_.push_back(v);
  }
  void write_bitvec(const BitVec& v) override {
    set_kind(v2::ContentKind::BitVecList);
    bits_.push_back(v);
  }
  void write_matrix(const linalg::Matrix& m) override {
    set_kind(v2::ContentKind::Matrix);
    if (matrix_.has_value()) {
      throw IoError("binary corpus: only one matrix record per container");
    }
    matrix_ = m;
  }
  void write_cipher_database(
      const std::vector<scheme::CipherPair>& db) override {
    set_kind(v2::ContentKind::CipherDatabase);
    db_.insert(db_.end(), db.begin(), db.end());
  }

  void finish() override {
    if (finished_) return;
    finished_ = true;
    switch (kind_.value_or(v2::ContentKind::VecList)) {
      case v2::ContentKind::VecList: finish_vec_list(); break;
      case v2::ContentKind::BitVecList: finish_bitvec_list(); break;
      case v2::ContentKind::Matrix:
      case v2::ContentKind::ScoreMatrix: finish_matrix(); break;
      case v2::ContentKind::CipherDatabase: finish_cipher_db(); break;
    }
    os_->flush();
    if (!*os_) throw IoError("binary corpus write failed");
  }

 private:
  void set_kind(v2::ContentKind kind) {
    if (finished_) throw IoError("binary corpus: write after finish()");
    if (!kind_.has_value()) kind_ = kind;
    if (*kind_ != kind) {
      throw IoError("binary corpus: a container holds one record kind");
    }
  }

  struct PendingSection {
    const void* data;
    v2::SectionEntry entry;  // offset filled during layout
  };

  /// Assign aligned offsets, then emit header + table + padded payloads.
  void emit(v2::ContentKind kind, v2::DType dtype, std::uint64_t record_count,
            std::vector<PendingSection> sections) {
    const std::size_t table_bytes =
        checked_mul(sections.size(), v2::kSectionEntryBytes, "section table");
    std::size_t cursor = v2::align_up(
        checked_add(v2::kHeaderBytes, table_bytes, "binary layout"));
    for (auto& s : sections) {
      s.entry.offset = cursor;
      cursor = v2::align_up(
          checked_add(cursor, s.entry.bytes, "binary layout"));
    }
    // File ends right after the last payload byte (no trailing pad).
    std::size_t file_bytes = v2::kHeaderBytes + table_bytes;
    if (!sections.empty()) {
      const auto& last = sections.back().entry;
      file_bytes = static_cast<std::size_t>(last.offset + last.bytes);
    }

    v2::Header h;
    h.kind = kind;
    h.dtype = dtype;
    h.section_count = sections.size();
    h.file_bytes = file_bytes;
    h.record_count = record_count;
    unsigned char header_buf[v2::kHeaderBytes];
    v2::encode_header(header_buf, h);
    write_bytes(header_buf, v2::kHeaderBytes);
    for (const auto& s : sections) {
      unsigned char entry_buf[v2::kSectionEntryBytes];
      v2::encode_section(entry_buf, s.entry);
      write_bytes(entry_buf, v2::kSectionEntryBytes);
    }
    std::size_t written = v2::kHeaderBytes + table_bytes;
    for (const auto& s : sections) {
      pad_to(s.entry.offset, written);
      write_bytes(s.data, static_cast<std::size_t>(s.entry.bytes));
      written = static_cast<std::size_t>(s.entry.offset + s.entry.bytes);
    }
  }

  void finish_vec_list() {
    const bool uniform =
        std::all_of(vecs_.begin(), vecs_.end(), [&](const Vec& v) {
          return v.size() == vecs_.front().size();
        });
    if (!vecs_.empty() && uniform) {
      flat_.reserve(vecs_.size() * vecs_.front().size());
      for (const auto& v : vecs_) {
        flat_.insert(flat_.end(), v.begin(), v.end());
      }
      emit(v2::ContentKind::VecList, v2::DType::F64, vecs_.size(),
           {{flat_.data(),
             {0, flat_.size() * sizeof(double), vecs_.size(),
              vecs_.front().size()}}});
      return;
    }
    std::vector<PendingSection> sections;
    sections.reserve(vecs_.size());
    for (const auto& v : vecs_) {
      sections.push_back(
          {v.data(), {0, v.size() * sizeof(double), 1, v.size()}});
    }
    emit(v2::ContentKind::VecList, v2::DType::F64, vecs_.size(),
         std::move(sections));
  }

  void finish_bitvec_list() {
    const bool uniform =
        std::all_of(bits_.begin(), bits_.end(), [&](const BitVec& v) {
          return v.size() == bits_.front().size();
        });
    if (!bits_.empty() && uniform) {
      flat_u8_.reserve(bits_.size() * bits_.front().size());
      for (const auto& v : bits_) {
        flat_u8_.insert(flat_u8_.end(), v.begin(), v.end());
      }
      emit(v2::ContentKind::BitVecList, v2::DType::U8, bits_.size(),
           {{flat_u8_.data(),
             {0, flat_u8_.size(), bits_.size(), bits_.front().size()}}});
      return;
    }
    std::vector<PendingSection> sections;
    sections.reserve(bits_.size());
    for (const auto& v : bits_) {
      sections.push_back({v.data(), {0, v.size(), 1, v.size()}});
    }
    emit(v2::ContentKind::BitVecList, v2::DType::U8, bits_.size(),
         std::move(sections));
  }

  void finish_matrix() {
    const linalg::Matrix& m = *matrix_;
    emit(v2::ContentKind::Matrix, v2::DType::F64, 1,
         {{m.data().data(),
           {0, m.data().size() * sizeof(double), m.rows(), m.cols()}}});
  }

  void finish_cipher_db() {
    const std::size_t da = db_.empty() ? 0 : db_.front().a.size();
    const std::size_t db_dim = db_.empty() ? 0 : db_.front().b.size();
    flat_.reserve(db_.size() * (da + db_dim));
    for (const auto& c : db_) {
      if (c.a.size() != da || c.b.size() != db_dim) {
        throw IoError("binary corpus: ragged cipher pairs");
      }
      flat_.insert(flat_.end(), c.a.begin(), c.a.end());
    }
    const std::size_t a_elems = flat_.size();
    for (const auto& c : db_) {
      flat_.insert(flat_.end(), c.b.begin(), c.b.end());
    }
    emit(v2::ContentKind::CipherDatabase, v2::DType::F64, db_.size(),
         {{flat_.data(), {0, a_elems * sizeof(double), db_.size(), da}},
          {flat_.data() + a_elems,
           {0, (flat_.size() - a_elems) * sizeof(double), db_.size(),
            db_dim}}});
  }

  void write_bytes(const void* data, std::size_t n) {
    if (n == 0) return;  // empty sections may carry a null payload pointer
    os_->write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
  }

  void pad_to(std::uint64_t offset, std::size_t written) {
    static constexpr char kZeros[v2::kPayloadAlign] = {};
    while (written < offset) {
      const std::size_t chunk =
          std::min<std::size_t>(offset - written, sizeof(kZeros));
      write_bytes(kZeros, chunk);
      written += chunk;
    }
  }

  std::unique_ptr<std::ofstream> file_;
  std::ostream* os_;
  std::optional<v2::ContentKind> kind_;
  std::vector<Vec> vecs_;
  std::vector<BitVec> bits_;
  std::optional<linalg::Matrix> matrix_;
  std::vector<scheme::CipherPair> db_;
  Vec flat_;  // finish()-time flattened payload (outlives emit())
  std::vector<std::uint8_t> flat_u8_;
  bool finished_ = false;
};

/// Stream-based binary reader: loads the container into an owned buffer,
/// validates the envelope, then materializes records on demand. The
/// zero-copy alternative is io::MappedCorpus.
class BinaryReader final : public CorpusReader {
 public:
  explicit BinaryReader(std::istream& is) { load(is); }
  explicit BinaryReader(const std::string& path) : path_(path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) throw IoError("cannot open input file: " + path);
    load(f);
  }

  bool refresh() override {
    // v2 containers are finished atomically (header last write wins), so a
    // grown corpus means a *rewritten* container: re-open, re-validate, and
    // keep the record cursor. Only a path-opened reader can do this.
    if (path_.empty()) return false;
    std::ifstream f(path_, std::ios::binary);
    if (!f) throw IoError("cannot open input file: " + path_);
    const v2::ContentKind kind = header_.kind;
    const std::size_t seen = header_.record_count;
    load(f);
    if (header_.kind != kind) {
      throw IoError("io::v2: refreshed container changed its content kind");
    }
    if (header_.record_count < seen) {
      throw IoError("io::v2: refreshed container lost records");
    }
    return next_ < header_.record_count;
  }

  std::optional<Record> read_next() override {
    if (next_ >= header_.record_count) return std::nullopt;
    const std::size_t i = next_++;
    Record r;
    switch (header_.kind) {
      case v2::ContentKind::Matrix:
      case v2::ContentKind::ScoreMatrix: {
        r.kind = RecordKind::Matrix;
        const auto& s = sections_[0];
        linalg::Matrix m(s.rows, s.cols);
        std::memcpy(m.data().data(), payload(s),
                    static_cast<std::size_t>(s.bytes));
        r.matrix = std::move(m);
        break;
      }
      case v2::ContentKind::VecList: {
        r.kind = RecordKind::Vec;
        const auto [ptr, len] = row_f64(i);
        r.vec.assign(ptr, ptr + len);
        break;
      }
      case v2::ContentKind::BitVecList: {
        r.kind = RecordKind::BitVec;
        const auto& s = sections_.size() == 1 ? sections_[0] : sections_[i];
        const std::size_t row = sections_.size() == 1 ? i : 0;
        const auto* ptr = payload(s) + row * s.cols;
        r.bits.assign(ptr, ptr + s.cols);
        break;
      }
      case v2::ContentKind::CipherDatabase: {
        r.kind = RecordKind::CipherPair;
        const auto* a = reinterpret_cast<const double*>(payload(sections_[0]));
        const auto* b = reinterpret_cast<const double*>(payload(sections_[1]));
        const std::size_t da = sections_[0].cols;
        const std::size_t db = sections_[1].cols;
        r.cipher.a.assign(a + i * da, a + (i + 1) * da);
        r.cipher.b.assign(b + i * db, b + (i + 1) * db);
        break;
      }
    }
    return r;
  }

 private:
  void load(std::istream& is) {
    read_rest(is.rdbuf());
    if (buf_.size() < v2::kHeaderBytes) {
      throw IoError("io::v2: file shorter than the 64-byte header");
    }
    const auto* bytes = reinterpret_cast<const unsigned char*>(buf_.data());
    header_ = v2::decode_header(bytes, buf_.size());
    sections_ = v2::decode_section_table(bytes + header_.table_offset,
                                         header_);
    v2::validate_sections(header_, sections_);
  }

  /// buf_ <- everything from the stream buffer's position to its end. A
  /// buffer that can seek is sized from its end and read in one call; one
  /// that cannot (or that grew after it was sized) is read on in fixed
  /// chunks. The stream's state flags are not touched.
  void read_rest(std::streambuf* sb) {
    buf_.clear();
    if (sb == nullptr) return;
    using traits = std::streambuf::traits_type;
    const std::streampos failed(std::streamoff(-1));
    const std::streampos here = sb->pubseekoff(0, std::ios::cur, std::ios::in);
    if (here != failed) {
      const std::streampos end = sb->pubseekoff(0, std::ios::end, std::ios::in);
      if (end != failed && sb->pubseekpos(here, std::ios::in) == here &&
          end > here) {
        buf_.resize(static_cast<std::size_t>(end - here));
      }
    }
    auto filled = static_cast<std::size_t>(
        sb->sgetn(buf_.data(), static_cast<std::streamsize>(buf_.size())));
    constexpr std::size_t kChunk = std::size_t{1} << 16;
    while (filled == buf_.size() && sb->sgetc() != traits::eof()) {
      buf_.resize(filled + kChunk);
      filled += static_cast<std::size_t>(
          sb->sgetn(buf_.data() + filled, std::streamsize{kChunk}));
    }
    buf_.resize(filled);
  }

  [[nodiscard]] const unsigned char* payload(
      const v2::SectionEntry& s) const {
    return reinterpret_cast<const unsigned char*>(buf_.data()) + s.offset;
  }

  /// Row `i` of a (uniform or ragged) f64 vector list.
  [[nodiscard]] std::pair<const double*, std::size_t> row_f64(
      std::size_t i) const {
    const auto& s = sections_.size() == 1 ? sections_[0] : sections_[i];
    const std::size_t row = sections_.size() == 1 ? i : 0;
    return {reinterpret_cast<const double*>(payload(s)) + row * s.cols,
            s.cols};
  }

  std::string path_;  // empty for stream-opened readers (no refresh)
  std::vector<char> buf_;
  v2::Header header_;
  std::vector<v2::SectionEntry> sections_;
  std::size_t next_ = 0;
};

}  // namespace

// --------------------------------------------------------------- factories

std::unique_ptr<CorpusReader> TextCodec::reader(std::istream& is) {
  return std::make_unique<TextReader>(is);
}
std::unique_ptr<CorpusReader> TextCodec::reader(const std::string& path) {
  return std::make_unique<TextReader>(path);
}
std::unique_ptr<CorpusWriter> TextCodec::writer(std::ostream& os) {
  return std::make_unique<TextWriter>(os);
}
std::unique_ptr<CorpusWriter> TextCodec::writer(const std::string& path) {
  return std::make_unique<TextWriter>(path);
}

std::unique_ptr<CorpusReader> BinaryCodec::reader(std::istream& is) {
  return std::make_unique<BinaryReader>(is);
}
std::unique_ptr<CorpusReader> BinaryCodec::reader(const std::string& path) {
  return std::make_unique<BinaryReader>(path);
}
std::unique_ptr<CorpusWriter> BinaryCodec::writer(std::ostream& os) {
  return std::make_unique<BinaryWriter>(os);
}
std::unique_ptr<CorpusWriter> BinaryCodec::writer(const std::string& path) {
  return std::make_unique<BinaryWriter>(path);
}

bool sniff_binary(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  char head[sizeof(v2::kMagic)] = {};
  is.read(head, sizeof(head));
  const bool complete = is.gcount() == sizeof(head);
  is.clear();
  is.seekg(pos);
  return complete && std::memcmp(head, v2::kMagic, sizeof(head)) == 0;
}

std::unique_ptr<CorpusReader> open_reader(std::istream& is, Format format) {
  if (format == Format::Auto) {
    format = sniff_binary(is) ? Format::Binary : Format::Text;
  }
  return format == Format::Binary ? BinaryCodec::reader(is)
                                  : TextCodec::reader(is);
}

std::unique_ptr<CorpusReader> open_reader(const std::string& path,
                                          Format format) {
  if (format == Format::Auto) {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) throw IoError("cannot open input file: " + path);
    format = sniff_binary(probe) ? Format::Binary : Format::Text;
  }
  return format == Format::Binary ? BinaryCodec::reader(path)
                                  : TextCodec::reader(path);
}

std::unique_ptr<CorpusWriter> open_writer(std::ostream& os, Format format) {
  require(format != Format::Auto,
          "open_writer: a writer needs an explicit format");
  return format == Format::Binary ? BinaryCodec::writer(os)
                                  : TextCodec::writer(os);
}

std::unique_ptr<CorpusWriter> open_writer(const std::string& path,
                                          Format format) {
  require(format != Format::Auto,
          "open_writer: a writer needs an explicit format");
  return format == Format::Binary ? BinaryCodec::writer(path)
                                  : TextCodec::writer(path);
}

Format parse_format(const std::string& name, bool allow_auto) {
  if (name == "text") return Format::Text;
  if (name == "bin" || name == "binary") return Format::Binary;
  if (allow_auto && name == "auto") return Format::Auto;
  throw InvalidArgument("--format expects 'text' or 'bin', got '" + name +
                        "'");
}

}  // namespace aspe::io
