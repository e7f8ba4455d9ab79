// Plain-text serialization for the library's value types — now the *text
// codec* behind the format-agnostic corpus API in io/codec.hpp.
//
// A deployed SSE system persists its encrypted database and ships
// ciphertexts over the wire; this module provides a simple, versioned,
// locale-independent text format for vectors, matrices and ciphertext
// pairs, with strict parsing (malformed input throws aspe::IoError, never
// yields partially-filled objects, and never sizes an allocation from an
// unvalidated header field).
//
// The io::detail functions are the text codec's record grammar, shared by
// io::TextCodec and the session snapshot format (io/session_io.hpp). The
// public surface is the format-agnostic corpus API: open a
// CorpusReader/CorpusWriter via io::open_reader / io::open_writer (or
// io::TextCodec / io::BinaryCodec directly) — see docs/io.md.
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "io/format.hpp"
#include "linalg/matrix.hpp"
#include "scheme/split_encryptor.hpp"

namespace aspe::io {

namespace detail {

// Non-deprecated implementations — the text codec's record grammar. Each
// writer emits a tagged, self-delimiting record; each reader validates the
// tag and every advertised size before filling the result (allocation growth
// is capped, so a lying size field fails as IoError, not bad_alloc).

void write_vec(std::ostream& os, const Vec& v);
[[nodiscard]] Vec read_vec(std::istream& is);

void write_bitvec(std::ostream& os, const BitVec& v);
[[nodiscard]] BitVec read_bitvec(std::istream& is);

void write_matrix(std::ostream& os, const linalg::Matrix& m);
[[nodiscard]] linalg::Matrix read_matrix(std::istream& is);

void write_cipher_pair(std::ostream& os, const scheme::CipherPair& c);
[[nodiscard]] scheme::CipherPair read_cipher_pair(std::istream& is);

void write_encrypted_database(std::ostream& os,
                              const std::vector<scheme::CipherPair>& db);
[[nodiscard]] std::vector<scheme::CipherPair> read_encrypted_database(
    std::istream& is);

void write_vec_list(std::ostream& os, const std::vector<Vec>& vs);
[[nodiscard]] std::vector<Vec> read_vec_list(std::istream& is);
void write_bitvec_list(std::ostream& os, const std::vector<BitVec>& vs);
[[nodiscard]] std::vector<BitVec> read_bitvec_list(std::istream& is);

/// The text grammar's tokenizer: whitespace-separated tokens read straight
/// off the stream's buffer, converted with <charconv> (no locale, no
/// iostream number parsing). The accepted grammar is in docs/io.md. Stream
/// state follows operator>>: a read that reaches the end of input sets
/// eofbit, finding no token or a token that does not convert sets failbit,
/// and a stream that is not good() yields no token — so a drained stream
/// stays drained until its owner clear()s it.
class Scanner {
 public:
  explicit Scanner(std::istream& is);

  /// The next token, or an empty view at end of input. The view is valid
  /// until the next read.
  [[nodiscard]] std::string_view token();
  /// Consume the next token, which must be `tag` (IoError otherwise).
  void expect(std::string_view tag);
  /// A non-negative decimal integer: an optional sign, then digits.
  [[nodiscard]] std::size_t size(const char* what);
  /// A decimal numeral: an optional sign, digits with at most one point, an
  /// optional exponent. No inf, nan or hex.
  [[nodiscard]] double number(const char* what);

 private:
  std::istream& is_;
  std::streambuf* buf_;
  std::array<char, 64> short_{};  // holds every numeral the writer emits
  std::string long_;  // longer tokens, grown only as far as the stream goes
};

// Body parsers — the grammar after the record tag has already been consumed.
// The streaming text reader (io::TextCodec) dispatches on the tag token and
// hands the rest of the record to these.
[[nodiscard]] Vec read_vec_body(Scanner& in);
[[nodiscard]] BitVec read_bitvec_body(Scanner& in);
[[nodiscard]] linalg::Matrix read_matrix_body(Scanner& in);
[[nodiscard]] scheme::CipherPair read_cipher_pair_body(Scanner& in);

}  // namespace detail

}  // namespace aspe::io
