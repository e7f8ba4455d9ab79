#include "io/serialization.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

namespace aspe::io {

std::size_t checked_mul(std::size_t a, std::size_t b, const char* what) {
  if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a) {
    throw IoError(std::string(what) + ": size overflows size_t");
  }
  return a * b;
}

std::size_t checked_add(std::size_t a, std::size_t b, const char* what) {
  if (a > std::numeric_limits<std::size_t>::max() - b) {
    throw IoError(std::string(what) + ": size overflows size_t");
  }
  return a + b;
}

namespace v2 {

std::size_t align_up(std::size_t x) {
  const std::size_t r = x % kPayloadAlign;
  return r == 0 ? x : checked_add(x, kPayloadAlign - r, "align_up");
}

}  // namespace v2

namespace detail {

namespace {

constexpr int kDoubleDigits = std::numeric_limits<double>::max_digits10;
constexpr int kEof = std::char_traits<char>::eof();

// Eager-allocation cap: a reader never sizes a buffer beyond this from an
// advertised count alone — the stream must actually produce the elements
// before the container grows past it, so "vec 9999999999" fails as a clean
// IoError on the missing payload instead of an attacker-sized bad_alloc.
constexpr std::size_t kEagerReserveElements = std::size_t{1} << 16;

std::size_t capped_reserve(std::size_t advertised) {
  return std::min(advertised, kEagerReserveElements);
}

/// The "C" locale's isspace, which operator>> skipped.
bool is_space(int c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// from_chars takes no leading '+'; iostream did ("+1", but not "+-1").
std::string_view strip_plus(std::string_view tok) {
  if (tok.size() > 1 && tok[0] == '+' && tok[1] != '-') tok.remove_prefix(1);
  return tok;
}

/// For a numeral from_chars found out of range: whether it underflows rather
/// than overflows. Such a numeral lies above the largest double (decimal
/// order >= 309) or below half the smallest denormal (order <= -323), so the
/// sign of its order decides; the exponent saturates far beyond both.
bool underflows(std::string_view tok) {
  constexpr long long kCap = 1'000'000'000;
  long long order = 0;  // 10^(order-1) <= |mantissa| < 10^order
  bool point = false;
  bool leading = true;
  std::size_t i = tok[0] == '-' ? 1 : 0;
  for (; i < tok.size() && tok[i] != 'e' && tok[i] != 'E'; ++i) {
    if (tok[i] == '.') {
      point = true;
    } else if (leading && tok[i] == '0') {
      if (point) --order;
    } else {
      leading = false;
      if (!point) ++order;
    }
  }
  long long exponent = 0;
  bool negative = false;
  if (i < tok.size()) {  // past the 'e': from_chars saw digits after it
    ++i;
    negative = tok[i] == '-';
    if (tok[i] == '+' || tok[i] == '-') ++i;
  }
  for (; i < tok.size(); ++i) {
    exponent = std::min(exponent * 10 + (tok[i] - '0'), kCap);
  }
  return order + (negative ? -exponent : exponent) <= 0;
}

/// `tok` by the grammar of `std::istream >> double` applied to a whole
/// token. A numeral below the denormal range reads as a signed zero (what
/// strtod, and so iostream, returned); one beyond the largest double fails.
bool parse_number(std::string_view tok, double& x) {
  tok = strip_plus(tok);
  const std::size_t sign = !tok.empty() && tok[0] == '-' ? 1 : 0;
  // from_chars would also take "inf", "nan" and "infinity".
  if (tok.size() == sign || !(is_digit(tok[sign]) || tok[sign] == '.')) {
    return false;
  }
  const char* last = tok.data() + tok.size();
  const auto [end, ec] = std::from_chars(tok.data(), last, x);
  if (end != last) return false;
  if (ec == std::errc::result_out_of_range && underflows(tok)) {
    x = sign != 0 ? -0.0 : 0.0;
    return true;
  }
  return ec == std::errc();
}

bool parse_integer(std::string_view tok, long long& n) {
  tok = strip_plus(tok);
  const char* last = tok.data() + tok.size();
  const auto [end, ec] = std::from_chars(tok.data(), last, n);
  return ec == std::errc() && end == last;
}

void check_tag(std::string_view got, std::string_view want) {
  if (got.empty()) {
    throw IoError("unexpected end of input, wanted " + std::string(want));
  }
  if (got != want) {
    throw IoError("expected tag '" + std::string(want) + "', got '" +
                  std::string(got) + "'");
  }
}

/// Text records are assembled in a fixed buffer that goes to the stream in
/// one write per buffer-full: most records take one write, and a record
/// longer than the buffer (a large matrix) goes out in pieces instead of
/// growing a line in memory. Numbers go through to_chars(general, 17), which
/// writes printf's %.17g — the characters operator<< wrote at precision 17,
/// so the output is byte-identical to the iostream writer's.
class LineWriter {
 public:
  explicit LineWriter(std::ostream& os) : os_(os) {}

  void text(std::string_view s) {
    reserve(s.size());
    std::memcpy(buf_.data() + used_, s.data(), s.size());
    used_ += s.size();
  }
  void put(char c) {
    reserve(1);
    buf_[used_++] = c;
  }
  void size(std::size_t n) {
    reserve(kMaxChars);
    advance(std::to_chars(here(), end(), n));
  }
  void number(double x) {
    reserve(kMaxChars);
    advance(std::to_chars(here(), end(), x, std::chars_format::general,
                          kDoubleDigits));
  }
  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kMaxChars = 32;  // "-1.2345678901234567e-308"

  char* here() { return buf_.data() + used_; }
  char* end() { return buf_.data() + buf_.size(); }
  void advance(std::to_chars_result r) {
    used_ = static_cast<std::size_t>(r.ptr - buf_.data());
  }
  void reserve(std::size_t n) {
    if (buf_.size() - used_ < n) flush();
  }

  std::ostream& os_;
  std::array<char, 4096> buf_;  // only bytes [0, used_) are ever read
  std::size_t used_ = 0;
};

void put_vec(LineWriter& out, const Vec& v) {
  out.text("vec ");
  out.size(v.size());
  for (const double x : v) {
    out.put(' ');
    out.number(x);
  }
  out.put('\n');
}

void put_bitvec(LineWriter& out, const BitVec& v) {
  out.text("bits ");
  out.size(v.size());
  out.put(' ');
  for (const auto b : v) out.put(b != 0 ? '1' : '0');
  out.put('\n');
}

void put_cipher_pair(LineWriter& out, const scheme::CipherPair& c) {
  out.text("cipher\n");
  put_vec(out, c.a);
  put_vec(out, c.b);
}

/// `count` whitespace-separated doubles, validated element by element so the
/// buffer only ever grows as far as the stream actually delivers.
Vec read_doubles(Scanner& in, std::size_t count, const char* what) {
  Vec buf;
  buf.reserve(capped_reserve(count));
  for (std::size_t i = 0; i < count; ++i) buf.push_back(in.number(what));
  return buf;
}

Vec read_vec(Scanner& in) {
  in.expect("vec");
  return read_vec_body(in);
}

scheme::CipherPair read_cipher_pair(Scanner& in) {
  in.expect("cipher");
  return read_cipher_pair_body(in);
}

}  // namespace

// ------------------------------------------------------------------ Scanner

Scanner::Scanner(std::istream& is) : is_(is), buf_(is.rdbuf()) {}

std::string_view Scanner::token() {
  if (!is_.good()) {
    is_.setstate(std::ios::failbit);
    return {};
  }
  int c = buf_->sgetc();
  while (c != kEof && is_space(c)) c = buf_->snextc();
  std::size_t n = 0;
  while (c != kEof && !is_space(c) && n < short_.size()) {
    short_[n++] = static_cast<char>(c);
    c = buf_->snextc();
  }
  std::string_view tok(short_.data(), n);
  if (n == short_.size()) {
    long_.assign(tok);
    while (c != kEof && !is_space(c)) {
      long_.push_back(static_cast<char>(c));
      c = buf_->snextc();
    }
    tok = long_;
  }
  if (c == kEof) {
    is_.setstate(tok.empty() ? std::ios::eofbit | std::ios::failbit
                             : std::ios::eofbit);
  }
  return tok;
}

void Scanner::expect(std::string_view tag) { check_tag(token(), tag); }

std::size_t Scanner::size(const char* what) {
  long long n = 0;
  const bool parsed = parse_integer(token(), n);
  if (!parsed) is_.setstate(std::ios::failbit);
  if (!parsed || n < 0) {
    throw IoError(std::string("malformed size for ") + what);
  }
  return static_cast<std::size_t>(n);
}

double Scanner::number(const char* what) {
  double x = 0.0;
  if (!parse_number(token(), x)) {
    is_.setstate(std::ios::failbit);
    throw IoError(std::string("malformed value in ") + what);
  }
  return x;
}

// ------------------------------------------------------------------ records

void write_vec(std::ostream& os, const Vec& v) {
  LineWriter out(os);
  put_vec(out, v);
  out.flush();
}

Vec read_vec_body(Scanner& in) {
  const std::size_t n = in.size("vec");
  return read_doubles(in, n, "vec");
}

Vec read_vec(std::istream& is) {
  Scanner in(is);
  return read_vec(in);
}

void write_bitvec(std::ostream& os, const BitVec& v) {
  LineWriter out(os);
  put_bitvec(out, v);
  out.flush();
}

BitVec read_bitvec_body(Scanner& in) {
  const std::size_t n = in.size("bits");
  const std::string_view payload = n > 0 ? in.token() : std::string_view();
  if (n > 0 && payload.empty()) throw IoError("truncated bit vector");
  // The payload token is bounded by the stream's real content, so comparing
  // before allocating keeps a lying size field from sizing anything.
  if (payload.size() != n) throw IoError("bit vector length mismatch");
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (payload[i] != '0' && payload[i] != '1') {
      throw IoError("bit vector contains non-binary character");
    }
    v[i] = payload[i] == '1' ? 1 : 0;
  }
  return v;
}

BitVec read_bitvec(std::istream& is) {
  Scanner in(is);
  in.expect("bits");
  return read_bitvec_body(in);
}

void write_matrix(std::ostream& os, const linalg::Matrix& m) {
  LineWriter out(os);
  out.text("matrix ");
  out.size(m.rows());
  out.put(' ');
  out.size(m.cols());
  for (const double x : m.data()) {
    out.put(' ');
    out.number(x);
  }
  out.put('\n');
  out.flush();
}

linalg::Matrix read_matrix_body(Scanner& in) {
  const std::size_t rows = in.size("matrix rows");
  const std::size_t cols = in.size("matrix cols");
  const std::size_t elems = checked_mul(rows, cols, "matrix dimensions");
  // Parse every element before sizing the matrix: the full allocation only
  // happens once the stream has proven it holds rows * cols doubles.
  Vec buf = read_doubles(in, elems, "matrix");
  linalg::Matrix m(rows, cols);
  std::copy(buf.begin(), buf.end(), m.data().begin());
  return m;
}

linalg::Matrix read_matrix(std::istream& is) {
  Scanner in(is);
  in.expect("matrix");
  return read_matrix_body(in);
}

void write_cipher_pair(std::ostream& os, const scheme::CipherPair& c) {
  LineWriter out(os);
  put_cipher_pair(out, c);
  out.flush();
}

scheme::CipherPair read_cipher_pair_body(Scanner& in) {
  scheme::CipherPair c;
  c.a = read_vec(in);
  c.b = read_vec(in);
  return c;
}

scheme::CipherPair read_cipher_pair(std::istream& is) {
  Scanner in(is);
  return read_cipher_pair(in);
}

void write_encrypted_database(std::ostream& os,
                              const std::vector<scheme::CipherPair>& db) {
  LineWriter out(os);
  out.text("encrypted_db ");
  out.size(db.size());
  out.put('\n');
  for (const auto& c : db) put_cipher_pair(out, c);
  out.flush();
}

std::vector<scheme::CipherPair> read_encrypted_database(std::istream& is) {
  Scanner in(is);
  in.expect("encrypted_db");
  const std::size_t n = in.size("encrypted_db");
  std::vector<scheme::CipherPair> db;
  db.reserve(capped_reserve(n));
  for (std::size_t i = 0; i < n; ++i) db.push_back(read_cipher_pair(in));
  return db;
}

void write_vec_list(std::ostream& os, const std::vector<Vec>& vs) {
  LineWriter out(os);
  for (const auto& v : vs) put_vec(out, v);
  out.flush();
}

std::vector<Vec> read_vec_list(std::istream& is) {
  Scanner in(is);
  std::vector<Vec> out;
  for (auto tag = in.token(); !tag.empty(); tag = in.token()) {
    check_tag(tag, "vec");
    out.push_back(read_vec_body(in));
  }
  return out;
}

void write_bitvec_list(std::ostream& os, const std::vector<BitVec>& vs) {
  LineWriter out(os);
  for (const auto& v : vs) put_bitvec(out, v);
  out.flush();
}

std::vector<BitVec> read_bitvec_list(std::istream& is) {
  Scanner in(is);
  std::vector<BitVec> out;
  for (auto tag = in.token(); !tag.empty(); tag = in.token()) {
    check_tag(tag, "bits");
    out.push_back(read_bitvec_body(in));
  }
  return out;
}

}  // namespace detail
}  // namespace aspe::io
