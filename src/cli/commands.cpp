#include "cli/commands.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <variant>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/attack_api.hpp"
#include "core/lep.hpp"
#include "core/mip_attack.hpp"
#include "core/session.hpp"
#include "core/snmf_attack.hpp"
#include "data/quest.hpp"
#include "io/codec.hpp"
#include "io/key_io.hpp"
#include "io/session_io.hpp"
#include "obs/sinks.hpp"
#include "par/thread_pool.hpp"
#include "rng/rng.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"

namespace aspe::cli {

namespace {

std::ifstream open_input(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw io::IoError("cannot open input file: " + path);
  return f;
}

std::ofstream open_output(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw io::IoError("cannot open output file: " + path);
  return f;
}

std::string required(const CliFlags& flags, const std::string& name) {
  const std::string v = flags.get_string(name, "");
  require(!v.empty(), "missing required flag --" + name);
  return v;
}

/// Resolve the command's *primary input* path: its named flag, with
/// `--input` accepted as the uniform alias every command shares.
std::string required_input(const CliFlags& flags, const std::string& name) {
  std::string v = flags.get_string(name, "");
  if (v.empty()) v = flags.get_string("input", "");
  require(!v.empty(), "missing required flag --" + name + " (or --input)");
  return v;
}

/// Resolve the command's *primary output* path (`--output` is the alias).
std::string required_output(const CliFlags& flags, const std::string& name) {
  std::string v = flags.get_string(name, "");
  if (v.empty()) v = flags.get_string("output", "");
  require(!v.empty(), "missing required flag --" + name + " (or --output)");
  return v;
}

/// The output encoding from `--format` (text when absent). Inputs never need
/// the flag: readers open with Format::Auto and sniff the v2 magic, so every
/// command consumes either encoding transparently.
io::Format output_format(const CliFlags& flags) {
  return io::parse_format(flags.get_string("format", "text"));
}

/// Build the execution policy for an attack command from the global
/// `--threads` flag (default 1, so existing invocations reproduce their
/// serial outputs exactly) and the command's `--seed`.
core::ExecContext make_exec_context(const CliFlags& flags,
                                    std::uint64_t seed) {
  core::ExecContext ctx;
  ctx.threads = flags.get_threads(1);
  ctx.seed = seed;
  if (flags.has("threads")) {
    // Publishes the width as the process default and grows the shared pool
    // when the request exceeds its current size.
    par::set_default_threads(ctx.threads);
  }
  return ctx;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << ch;
    }
  }
  os << '"';
}

/// Telemetry wiring for the attack-* commands: `--trace-json=<path>` streams
/// the run as a chrome://tracing / Perfetto event array, `--metrics-json=
/// <path>` dumps the final AttackTelemetry block (wall time, per-span
/// aggregates, counters, gauges) as one JSON object. Either flag attaches a
/// sink to the ExecContext, which turns the recording machinery on; with
/// neither flag sink() is null and the instrumented paths stay inert.
class CommandObs {
 public:
  explicit CommandObs(const CliFlags& flags)
      : trace_path_(flags.get_string("trace-json", "")),
        metrics_path_(flags.get_string("metrics-json", "")) {
    if (!trace_path_.empty()) {
      trace_.emplace(trace_path_);
      if (!trace_->ok()) {
        throw io::IoError("cannot open trace file: " + trace_path_);
      }
      tee_.add(&*trace_);
    } else if (!metrics_path_.empty()) {
      // Metrics come from the result's telemetry block, but recording must
      // still be switched on for the lower layers' counters to be captured.
      tee_.add(&null_);
    }
  }

  [[nodiscard]] obs::Sink* sink() {
    return trace_path_.empty() && metrics_path_.empty() ? nullptr : &tee_;
  }

  [[nodiscard]] bool wants_metrics() const { return !metrics_path_.empty(); }

  /// Close the trace stream and write the metrics snapshot; call after the
  /// attack returned (successful or not — a trace of a failed run is still
  /// a trace).
  void finish(const core::AttackTelemetry& telemetry, std::ostream& out) {
    if (trace_) {
      trace_->close();
      out << "wrote trace events to " << trace_path_ << "\n";
    }
    if (metrics_path_.empty()) return;
    auto f = open_output(metrics_path_);
    f.precision(15);
    f << "{\n  \"wall_seconds\": " << telemetry.wall_seconds
      << ",\n  \"spans\": [";
    for (std::size_t i = 0; i < telemetry.spans.size(); ++i) {
      f << (i == 0 ? "\n" : ",\n") << "    {\"name\": ";
      write_json_string(f, telemetry.spans[i].name);
      f << ", \"count\": " << telemetry.spans[i].count
        << ", \"total_seconds\": " << telemetry.spans[i].total_seconds << "}";
    }
    f << (telemetry.spans.empty() ? "]" : "\n  ]") << ",\n  \"counters\": {";
    std::size_t i = 0;
    for (const auto& [name, value] : telemetry.counters) {
      f << (i++ == 0 ? "\n" : ",\n") << "    ";
      write_json_string(f, name);
      f << ": " << value;
    }
    f << (telemetry.counters.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
    i = 0;
    for (const auto& [name, value] : telemetry.gauges) {
      f << (i++ == 0 ? "\n" : ",\n") << "    ";
      write_json_string(f, name);
      f << ": " << value;
    }
    f << (telemetry.gauges.empty() ? "}" : "\n  }") << "\n}\n";
    out << "wrote metrics to " << metrics_path_ << "\n";
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::optional<obs::JsonLinesSink> trace_;
  obs::NullSink null_;
  obs::TeeSink tee_;
};

// ------------------------------------------------------- request builders
//
// Flags -> core::*Request, once per attack kind. attack-lep / attack-mip /
// attack-snmf and `submit --attack=...` all parse through these, so the CLI
// and the daemon describe a job with the same vocabulary and the old
// per-command flag-translation blocks are gone.

core::LepRequest build_lep_request(const CliFlags& flags) {
  core::LepRequest req;
  req.known_plain = core::CorpusRef::from_path(required(flags, "known-plain"));
  req.db = core::CorpusRef::from_path(required_input(flags, "db"));
  req.trapdoors = core::CorpusRef::from_path(required(flags, "trapdoors"));
  return req;
}

core::MipRequest build_mip_request(const CliFlags& flags) {
  core::MipRequest req;
  req.known_plain = core::CorpusRef::from_path(required(flags, "known-plain"));
  req.db = core::CorpusRef::from_path(required_input(flags, "db"));
  req.trapdoors = core::CorpusRef::from_path(required(flags, "trapdoors"));
  req.trapdoor_id = static_cast<std::size_t>(flags.get_int("trapdoor-id", 0));
  req.mu = flags.get_double("mu", 1.0);
  req.sigma = flags.get_double("sigma", 0.5);
  req.options.l = flags.get_double("l", 3.0);
  req.options.solver.time_limit_seconds = flags.get_double("time-limit", 30.0);
  const int max_nodes = flags.get_int(
      "max-nodes", static_cast<int>(req.options.solver.max_nodes));
  require(max_nodes > 0, "attack-mip: --max-nodes must be positive");
  req.options.solver.max_nodes = static_cast<std::size_t>(max_nodes);
  return req;
}

core::SnmfRequest build_snmf_request(const CliFlags& flags) {
  core::SnmfRequest req;
  req.db = core::CorpusRef::from_path(required_input(flags, "db"));
  req.trapdoors = core::CorpusRef::from_path(required(flags, "trapdoors"));
  req.options.rank = static_cast<std::size_t>(flags.get_int("rank", 0));
  req.options.restarts =
      static_cast<std::size_t>(flags.get_int("restarts", 3));
  req.options.nmf.max_iterations =
      static_cast<std::size_t>(flags.get_int("iters", 250));
  req.options.rank_tol = flags.get_double("rank-tol", req.options.rank_tol);
  require(req.options.rank_tol > 0,
          "attack-snmf: --rank-tol must be positive");
  req.reuse_session = flags.get_bool("reuse-session", false);
  return req;
}

/// Raise a failed response as the typed error the top-level handler maps to
/// its exit code.
void require_ok(const core::AttackResponse& resp) {
  if (!resp.ok()) throw core::Error(resp.error, resp.message);
}

/// Print the rank-estimation report line when dispatch chose d itself
/// (exactly the line the pre-dispatch CLI printed).
void report_estimated_rank(const core::AttackResponse& resp,
                           std::ostream& out) {
  const double rank = resp.telemetry.counter("snmf.estimated_rank");
  if (rank > 0) {
    out << "estimated latent dimension d = "
        << static_cast<std::size_t>(rank) << " from rank(R)\n";
  }
}

// --------------------------------------------------------- result writers
//
// Shared by the in-process attack commands and `submit` (daemon results),
// so a job produces byte-identical output files either way.

// `suffix` is appended to every output path — "" for the single-job
// commands, ".jobN" when `submit` fans one invocation out over several
// inputs and each job needs its own files.

void write_snmf_outputs(const core::SnmfAttackResult& res,
                        const CliFlags& flags, std::ostream& out,
                        const std::string& suffix = "") {
  const std::string out_path = required_output(flags, "out") + suffix;
  if (output_format(flags) == io::Format::Binary) {
    // One BitVecList container: the reconstructed indexes followed by the
    // reconstructed trapdoors (the counts are reported on stdout; the text
    // report's comment lines have no binary equivalent).
    auto w = io::open_writer(out_path, io::Format::Binary);
    for (const auto& v : res.indexes) w->write_bitvec(v);
    for (const auto& v : res.trapdoors) w->write_bitvec(v);
    w->finish();
  } else {
    auto f = open_output(out_path);
    auto w = io::TextCodec::writer(f);
    f << "# reconstructed indexes (" << res.indexes.size() << ")\n";
    for (const auto& v : res.indexes) w->write_bitvec(v);
    f << "# reconstructed trapdoors (" << res.trapdoors.size() << ")\n";
    for (const auto& v : res.trapdoors) w->write_bitvec(v);
    w->finish();
  }
  out << "SNMF attack: reconstructed " << res.indexes.size()
      << " indexes and " << res.trapdoors.size()
      << " trapdoors (fit error " << res.best_fit_error << ")\n";
}

void write_lep_outputs(const core::LepResult& res, const CliFlags& flags,
                       std::ostream& out, const std::string& suffix = "") {
  const io::Format fmt = output_format(flags);
  auto rec_w = io::open_writer(required(flags, "out-records") + suffix, fmt);
  for (const auto& v : res.records) rec_w->write_vec(v);
  rec_w->finish();
  auto query_w = io::open_writer(required(flags, "out-queries") + suffix, fmt);
  for (const auto& v : res.queries) query_w->write_vec(v);
  query_w->finish();
  out << "LEP attack: recovered " << res.records.size() << " records and "
      << res.queries.size() << " queries (complete disclosure)\n";
}

int write_mip_outputs(const core::AttackResponse& resp, const CliFlags& flags,
                      std::ostream& out, const std::string& suffix = "") {
  if (resp.status == core::AttackStatus::NoSolution) {
    out << "MIP attack: no feasible query found within limits\n";
    return 3;
  }
  const auto& res = resp.mip();
  auto w = io::open_writer(required_output(flags, "out") + suffix,
                           output_format(flags));
  w->write_bitvec(res.query);
  w->finish();
  out << "MIP attack: reconstructed query with " << popcount(res.query)
      << " keywords in " << res.telemetry.wall_seconds
      << "s (rhat=" << res.rhat << ", that=" << res.that << ")\n";
  return 0;
}

// ----------------------------------------------------------------- commands

int cmd_keygen(const CliFlags& flags, std::ostream& out) {
  const auto dim = static_cast<std::size_t>(flags.get_int("dim", 0));
  require(dim > 0, "keygen: --dim must be positive");
  rng::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 2017)));
  const scheme::SplitEncryptor key(dim, rng);
  auto f = open_output(required(flags, "key"));
  io::write_split_encryptor(f, key);
  out << "wrote " << dim << "-dimensional split-encryptor key to "
      << flags.get_string("key", "") << "\n";
  return 0;
}

int cmd_gen_data(const CliFlags& flags, std::ostream& out) {
  const auto d = static_cast<std::size_t>(flags.get_int("d", 0));
  require(d > 0, "gen-data: --d must be positive");
  const auto count = static_cast<std::size_t>(flags.get_int("count", 100));
  rng::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 2017)));
  std::vector<Vec> as_vecs;
  as_vecs.reserve(count);
  if (flags.get_bool("real", false)) {
    // Real-valued records (the LEP attack's domain: for binary records the
    // quadratic index coordinate is linear in P and d+1 independent
    // indexes cannot exist).
    const double lo = flags.get_double("lo", -1.0);
    const double hi = flags.get_double("hi", 1.0);
    for (std::size_t i = 0; i < count; ++i) {
      as_vecs.push_back(rng.uniform_vec(d, lo, hi));
    }
    out << "wrote " << count << " real-valued records (d=" << d << ") to "
        << required_output(flags, "out") << "\n";
  } else {
    data::QuestOptions qopt;
    qopt.num_items = d;
    qopt.density = flags.get_double("rho", 0.2);
    qopt.num_transactions = count;
    for (const auto& r :
         data::QuestGenerator(qopt, std::move(rng)).generate()) {
      as_vecs.push_back(to_real(r));
    }
    out << "wrote " << count << " binary records (d=" << d
        << ", rho=" << qopt.density << ") to " << required_output(flags, "out")
        << "\n";
  }
  auto w = io::open_writer(required_output(flags, "out"), output_format(flags));
  for (const auto& v : as_vecs) w->write_vec(v);
  w->finish();
  return 0;
}

int cmd_encrypt(const CliFlags& flags, std::ostream& out, bool trapdoor) {
  auto key_file = open_input(required(flags, "key"));
  const scheme::SplitEncryptor key = io::read_split_encryptor(key_file);
  const auto plain =
      io::open_reader(required_input(flags, "plain"))->read_vecs();
  require(!plain.empty(), "encrypt: no plaintext records in input");
  rng::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  std::vector<scheme::CipherPair> db;
  db.reserve(plain.size());
  for (const auto& v : plain) {
    db.push_back(trapdoor ? key.encrypt_trapdoor(v, rng)
                          : key.encrypt_index(v, rng));
  }
  auto w = io::open_writer(required_output(flags, "out"), output_format(flags));
  w->write_cipher_database(db);
  w->finish();
  out << "encrypted " << db.size() << (trapdoor ? " trapdoors" : " indexes")
      << " under " << flags.get_string("key", "") << "\n";
  return 0;
}

int cmd_decrypt(const CliFlags& flags, std::ostream& out) {
  auto key_file = open_input(required(flags, "key"));
  const scheme::SplitEncryptor key = io::read_split_encryptor(key_file);
  const auto db =
      io::open_reader(required_input(flags, "db"))->read_cipher_database();
  const bool trapdoor = flags.get_bool("trapdoor", false);
  std::vector<Vec> plain;
  plain.reserve(db.size());
  for (const auto& c : db) {
    plain.push_back(trapdoor ? key.decrypt_trapdoor(c) : key.decrypt_index(c));
  }
  auto w = io::open_writer(required_output(flags, "out"), output_format(flags));
  for (const auto& v : plain) w->write_vec(v);
  w->finish();
  out << "decrypted " << plain.size() << " records\n";
  return 0;
}

int cmd_score(const CliFlags& flags, std::ostream& out) {
  const auto db =
      io::open_reader(required_input(flags, "db"))->read_cipher_database();
  const auto trapdoors =
      io::open_reader(required(flags, "trapdoors"))->read_cipher_database();
  require(!db.empty() && !trapdoors.empty(), "score: empty inputs");
  out << "score matrix (" << db.size() << " x " << trapdoors.size() << ")\n";
  out.precision(6);
  for (const auto& index : db) {
    for (const auto& t : trapdoors) {
      out << scheme::cipher_score(index, t) << ' ';
    }
    out << '\n';
  }
  return 0;
}

int cmd_attack_snmf(const CliFlags& flags, std::ostream& out) {
  // --session=PATH runs the attack through an incremental core::CoaSession
  // persisted at PATH. Without --append the inputs seed a fresh session
  // (the attack itself is bit-identical to the batch path); with --append
  // the inputs are the *delta* — new ciphertexts folded into the restored
  // session, whose factorization then warm-restarts.
  const std::string session_path = flags.get_string("session", "");
  const bool append = flags.get_bool("append", false);
  require(!append || !session_path.empty(),
          "attack-snmf: --append needs --session=PATH");

  core::SnmfRequest req = build_snmf_request(flags);
  CommandObs cobs(flags);
  core::ExecContext ctx = make_exec_context(
      flags, static_cast<std::uint64_t>(flags.get_int("seed", 2017)));
  ctx.sink = cobs.sink();

  core::SnmfAttackResult res;
  if (!session_path.empty()) {
    sse::CoaView view;
    view.cipher_indexes = *req.db.load_ciphers("attack-snmf db");
    view.cipher_trapdoors =
        *req.trapdoors.load_ciphers("attack-snmf trapdoors");
    std::optional<core::CoaSession> session;
    if (append) {
      session.emplace(io::load_coa_session(session_path), req.options, ctx);
    } else {
      session.emplace(req.options, ctx);
    }
    session->append_ciphertexts(view);
    if (req.options.rank == 0) {
      const std::size_t rank = session->estimate_rank();
      require(rank > 0, "attack-snmf: rank estimation found a zero matrix");
      out << "estimated latent dimension d = " << rank << " from rank(R)\n";
      session->set_rank(rank);
    } else {
      session->set_rank(req.options.rank);
    }
    res = session->attack();
    io::save_coa_session(session_path, session->snapshot());
    out << "session: " << session->num_indexes() << " indexes / "
        << session->num_trapdoors() << " trapdoors -> " << session_path
        << "\n";
  } else {
    core::AttackRequest areq;
    areq.request = std::move(req);
    core::AttackResponse resp = core::dispatch_attack(areq, ctx);
    require_ok(resp);
    report_estimated_rank(resp, out);
    res = std::get<core::SnmfAttackResult>(std::move(resp.result));
  }
  cobs.finish(res.telemetry, out);
  write_snmf_outputs(res, flags, out);
  return 0;
}

int cmd_make_index(const CliFlags& flags, std::ostream& out) {
  const auto records =
      io::open_reader(required_input(flags, "plain"))->read_vecs();
  std::vector<Vec> indexes;
  indexes.reserve(records.size());
  for (const auto& p : records) indexes.push_back(scheme::make_index(p));
  auto w = io::open_writer(required_output(flags, "out"), output_format(flags));
  for (const auto& v : indexes) w->write_vec(v);
  w->finish();
  out << "built " << indexes.size() << " ASPE indexes (P, -0.5||P||^2)\n";
  return 0;
}

int cmd_make_trapdoor(const CliFlags& flags, std::ostream& out) {
  const auto queries =
      io::open_reader(required_input(flags, "plain"))->read_vecs();
  rng::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  std::vector<Vec> trapdoors;
  trapdoors.reserve(queries.size());
  for (const auto& q : queries) {
    trapdoors.push_back(scheme::make_trapdoor(q, rng.uniform(0.5, 2.0)));
  }
  auto w = io::open_writer(required_output(flags, "out"), output_format(flags));
  for (const auto& v : trapdoors) w->write_vec(v);
  w->finish();
  out << "built " << trapdoors.size() << " ASPE trapdoors r(Q, 1)\n";
  return 0;
}

scheme::Mrse make_mrse(const CliFlags& flags, std::size_t d, rng::Rng& rng) {
  scheme::MrseOptions mopt;
  mopt.vocab_dim = d;
  mopt.num_dummies = static_cast<std::size_t>(flags.get_int("u", 8));
  mopt.mu = flags.get_double("mu", 1.0);
  mopt.sigma = flags.get_double("sigma", 0.5);
  return scheme::Mrse(mopt, rng);
}

BitVec to_bits(const Vec& v) {
  BitVec b(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) b[k] = v[k] > 0.5 ? 1 : 0;
  return b;
}

int cmd_mrse_index(const CliFlags& flags, std::ostream& out) {
  const auto records =
      io::open_reader(required_input(flags, "plain"))->read_vecs();
  require(!records.empty(), "mrse-index: no records");
  rng::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const scheme::Mrse mrse = make_mrse(flags, records[0].size(), rng);
  std::vector<Vec> indexes;
  indexes.reserve(records.size());
  for (const auto& p : records) {
    indexes.push_back(mrse.build_index(to_bits(p), rng));
  }
  auto w = io::open_writer(required_output(flags, "out"), output_format(flags));
  for (const auto& v : indexes) w->write_vec(v);
  w->finish();
  out << "built " << indexes.size() << " MRSE indexes (d+U+1 = "
      << indexes[0].size() << ")\n";
  return 0;
}

int cmd_mrse_trapdoor(const CliFlags& flags, std::ostream& out) {
  const auto queries =
      io::open_reader(required_input(flags, "plain"))->read_vecs();
  require(!queries.empty(), "mrse-trapdoor: no queries");
  rng::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const scheme::Mrse mrse = make_mrse(flags, queries[0].size(), rng);
  std::vector<Vec> trapdoors;
  trapdoors.reserve(queries.size());
  for (const auto& q : queries) {
    trapdoors.push_back(mrse.build_trapdoor(to_bits(q), rng));
  }
  auto w = io::open_writer(required_output(flags, "out"), output_format(flags));
  for (const auto& v : trapdoors) w->write_vec(v);
  w->finish();
  out << "built " << trapdoors.size() << " MRSE trapdoors\n";
  return 0;
}

int cmd_attack_lep(const CliFlags& flags, std::ostream& out) {
  // --session=PATH runs the attack through an incremental core::LepSession
  // persisted at PATH; with --append the inputs are the *delta* (new leaks
  // and ciphertexts) and every input flag becomes optional. A session that
  // is not yet ready (a basis still incomplete) saves its state, reports
  // what it is waiting for, and exits 0 without writing outputs.
  const std::string session_path = flags.get_string("session", "");
  const bool append = flags.get_bool("append", false);
  require(!append || !session_path.empty(),
          "attack-lep: --append needs --session=PATH");

  // LEP consumes no randomness; the context carries the thread count and
  // the telemetry sink.
  CommandObs cobs(flags);
  core::ExecContext ctx = make_exec_context(flags, 0);
  ctx.sink = cobs.sink();

  core::LepResult res;
  if (!session_path.empty()) {
    // Session mode keeps its own input handling: under --append every flag
    // is optional (the inputs are a delta) and the known pairs are built
    // against the delta database.
    const auto read_vecs_flag = [&](const char* name) {
      const std::string path = flags.get_string(name, "");
      return path.empty() ? std::vector<Vec>{}
                          : io::open_reader(path)->read_vecs();
    };
    const auto read_db_flag = [&](const char* name, bool primary) {
      std::string path = flags.get_string(name, "");
      if (path.empty() && primary) path = flags.get_string("input", "");
      return path.empty() ? std::vector<scheme::CipherPair>{}
                          : io::open_reader(path)->read_cipher_database();
    };
    const auto known_records = read_vecs_flag("known-plain");
    sse::CoaView observed;
    observed.cipher_indexes = read_db_flag("db", true);
    observed.cipher_trapdoors = read_db_flag("trapdoors", false);
    require(known_records.size() <= observed.cipher_indexes.size(),
            "attack-lep: more known records than ciphertexts");
    std::vector<sse::KnownIndexPair> known_pairs;
    known_pairs.reserve(known_records.size());
    for (std::size_t i = 0; i < known_records.size(); ++i) {
      known_pairs.push_back({scheme::make_index(known_records[i]),
                             observed.cipher_indexes[i]});
    }
    std::optional<core::LepSession> session;
    if (append) {
      session.emplace(io::load_lep_session(session_path), core::LepOptions{},
                      ctx);
    } else {
      session.emplace(core::LepOptions{}, ctx);
    }
    session->add_known_pairs(known_pairs);
    session->append_ciphertexts(observed);
    io::save_lep_session(session_path, session->snapshot());
    if (!session->ready()) {
      out << "LEP session: waiting for "
          << (!session->pair_basis_complete()
                  ? "d+1 independent known pairs"
                  : "d+1 independent trapdoors")
          << " (" << session->num_indexes() << " indexes / "
          << session->num_trapdoors() << " trapdoors observed); state -> "
          << session_path << "\n";
      return 0;
    }
    res = session->result();
    out << "session: " << session->warm_resolves()
        << " warm re-solves; state -> " << session_path << "\n";
  } else {
    core::AttackRequest areq;
    areq.request = build_lep_request(flags);
    core::AttackResponse resp = core::dispatch_attack(areq, ctx);
    require_ok(resp);
    res = std::get<core::LepResult>(std::move(resp.result));
  }
  cobs.finish(res.telemetry, out);
  write_lep_outputs(res, flags, out);
  return 0;
}

int cmd_attack_mip(const CliFlags& flags, std::ostream& out) {
  // MIP consumes no randomness; the context carries the thread count and
  // the telemetry sink.
  CommandObs cobs(flags);
  core::ExecContext ctx = make_exec_context(flags, 0);
  ctx.sink = cobs.sink();

  core::AttackRequest areq;
  areq.request = build_mip_request(flags);
  const core::AttackResponse resp = core::dispatch_attack(areq, ctx);
  require_ok(resp);
  cobs.finish(resp.telemetry, out);
  return write_mip_outputs(resp, flags, out);
}

int cmd_convert(const CliFlags& flags, std::ostream& out) {
  const std::string in_path = required_input(flags, "in");
  const std::string out_path = required_output(flags, "out");
  // --format names the *target* encoding; the source encoding is sniffed.
  const io::Format fmt = io::parse_format(required(flags, "format"));
  auto reader = io::open_reader(in_path);
  auto writer = io::open_writer(out_path, fmt);
  std::size_t records = 0;
  std::vector<scheme::CipherPair> pending_db;
  while (auto r = reader->read_next()) {
    ++records;
    // Cipher pairs are buffered so the text target gets one framed
    // encrypted_db (count up front) rather than a bare record stream.
    if (r->kind == io::RecordKind::CipherPair) {
      pending_db.push_back(std::move(r->cipher));
    } else {
      writer->write_record(*r);
    }
  }
  if (!pending_db.empty()) writer->write_cipher_database(pending_db);
  writer->finish();
  out << "converted " << records << " records to "
      << (fmt == io::Format::Binary ? "binary" : "text") << ": " << out_path
      << "\n";
  return 0;
}

// -------------------------------------------------------------- svc surface

/// The warm-state store's per-kind hits and resident bytes, for the serve
/// shutdown line and the ping summary.
void print_warm_state(const svc::DaemonStats& st, std::ostream& out) {
  out << "warm-state hits: " << st.corpus_cache_hits << " corpus, "
      << st.score_cache_hits << " score (" << st.score_cache_misses
      << " misses, " << st.score_cache_evictions << " evicted), "
      << st.rank_cache_hits << " rank, " << st.lep_session_hits
      << " lep session, " << st.snmf_resumes << " snmf session, "
      << st.basis_cache_hits << " mip basis; " << st.cache_bytes
      << " bytes resident";
}

int cmd_serve(const CliFlags& flags, std::ostream& out) {
  const std::string socket = required(flags, "socket");
  CommandObs cobs(flags);  // --trace-json streams every job's recording

  svc::DaemonOptions dopt;
  const int workers = flags.get_int("workers", 1);
  require(workers > 0, "serve: --workers must be positive");
  dopt.workers = static_cast<std::size_t>(workers);
  const int queue = flags.get_int("queue", 64);
  require(queue > 0, "serve: --queue must be positive");
  dopt.queue_capacity = static_cast<std::size_t>(queue);
  const int budget_mb = flags.get_int("memory-budget-mb", 0);
  require(budget_mb >= 0, "serve: --memory-budget-mb must be >= 0");
  dopt.memory_budget_bytes =
      static_cast<std::size_t>(budget_mb) * 1024 * 1024;
  dopt.sink = cobs.sink();
  if (flags.has("threads")) {
    par::set_default_threads(flags.get_threads(1));
  }

  svc::Daemon daemon(dopt);
  svc::ServerOptions sopt;
  sopt.socket_path = socket;
  svc::Server server(daemon, sopt);
  out << "svc: serving on " << socket << " (" << dopt.workers
      << " worker" << (dopt.workers == 1 ? "" : "s") << ", queue "
      << dopt.queue_capacity << ")\n";
  out.flush();  // clients may block until this line appears

  server.wait();  // until a client sends Shutdown
  server.stop();
  daemon.stop();
  const svc::DaemonStats st = daemon.stats();
  out << "svc: stopped after " << st.submitted << " jobs (" << st.completed
      << " completed, " << st.rejected << " rejected, " << st.expired
      << " expired, " << st.cancelled << " cancelled; ";
  print_warm_state(st, out);
  out << ")\n";
  cobs.finish(core::AttackTelemetry{}, out);
  return 0;
}

/// Convert a request's path refs into inline payloads (`submit --inline`):
/// the corpora are read client-side and shipped inside the Submit frame,
/// for daemons that cannot see the client's filesystem.
core::AttackRequest inline_request(core::AttackRequest req) {
  const auto to_ciphers = [](core::CorpusRef& ref) {
    if (!ref.path.empty()) {
      ref = core::CorpusRef::inline_ciphers(
          *ref.load_ciphers("submit corpus"));
    }
  };
  const auto to_vecs = [](core::CorpusRef& ref) {
    if (!ref.path.empty()) {
      ref = core::CorpusRef::inline_vecs(*ref.load_vecs("submit corpus"));
    }
  };
  std::visit(
      [&](auto& typed) {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, core::SnmfRequest>) {
          to_ciphers(typed.db);
          to_ciphers(typed.trapdoors);
        } else {
          to_vecs(typed.known_plain);
          to_ciphers(typed.db);
          to_ciphers(typed.trapdoors);
        }
      },
      req.request);
  return req;
}

/// Build the request `submit` describes with its flags. `db_path`, when
/// non-empty, overrides the database corpus — the multi-input path builds
/// one request per `--input` entry this way, all other flags shared.
core::AttackRequest build_submit_request(const std::string& attack,
                                         const CliFlags& flags,
                                         const std::string& db_path) {
  core::AttackRequest req;
  if (attack == "lep") {
    req.request = build_lep_request(flags);
  } else if (attack == "mip") {
    req.request = build_mip_request(flags);
  } else if (attack == "snmf") {
    req.request = build_snmf_request(flags);
  } else {
    throw InvalidArgument("submit: unknown --attack kind: " + attack);
  }
  if (!db_path.empty()) {
    std::visit(
        [&](auto& typed) { typed.db = core::CorpusRef::from_path(db_path); },
        req.request);
  }
  if (flags.get_bool("inline", false)) req = inline_request(std::move(req));
  return req;
}

/// One human line summarizing a stats-bearing Pong.
void print_daemon_stats(const svc::DaemonStats& st, std::ostream& out) {
  out << "pong: " << st.submitted << " submitted, " << st.completed
      << " completed, " << st.rejected << " rejected, " << st.queue_depth
      << " queued; ";
  print_warm_state(st, out);
  out << "\n";
}

int cmd_submit(const CliFlags& flags, std::ostream& out) {
  svc::Client client(required(flags, "socket"));
  if (flags.get_bool("ping", false)) {
    // Stats-bearing daemons answer the Pong with a DaemonStats payload; a
    // bare "pong" covers servers that predate it.
    const auto stats = client.ping_stats();
    if (stats) {
      print_daemon_stats(*stats, out);
    } else {
      require(client.ping(), "submit: daemon did not answer the ping");
      out << "pong\n";
    }
    return 0;
  }
  if (flags.get_bool("shutdown", false)) {
    client.shutdown_server();
    out << "svc: daemon shutting down\n";
    return 0;
  }

  const std::string attack = required(flags, "attack");
  const std::vector<std::string> inputs = flags.get_string_list("input", {});

  CommandObs cobs(flags);  // metrics only: spans are recorded daemon-side
  svc::JobOptions jopts;
  jopts.threads = flags.get_threads(1);
  // Same seeds the in-process commands use, so daemon results match the
  // CLI bit for bit (LEP and MIP consume no randomness).
  jopts.seed = attack == "snmf"
                   ? static_cast<std::uint64_t>(flags.get_int("seed", 2017))
                   : 0;
  jopts.deadline_ms =
      static_cast<std::uint64_t>(flags.get_int("deadline-ms", 0));
  jopts.want_telemetry = cobs.sink() != nullptr;

  if (inputs.size() <= 1) {
    core::AttackRequest req = build_submit_request(attack, flags, "");
    core::AttackResponse resp = client.run(req, jopts);
    require_ok(resp);
    if (attack == "snmf") report_estimated_rank(resp, out);
    cobs.finish(resp.telemetry, out);
    if (attack == "lep") {
      write_lep_outputs(resp.lep(), flags, out);
    } else if (attack == "mip") {
      return write_mip_outputs(resp, flags, out);
    } else {
      write_snmf_outputs(resp.snmf(), flags, out);
    }
    return 0;
  }

  // Several --input databases: one job per input, shipped in a single
  // SubmitBatch frame over this connection (one round trip for all the
  // ids). Each job writes its own output files (the --out paths suffixed
  // ".jobN") and reports its own status line; the command's exit code is
  // the first failing job's.
  std::vector<svc::BatchJob> jobs;
  jobs.reserve(inputs.size());
  for (const std::string& input : inputs) {
    jobs.push_back({build_submit_request(attack, flags, input), jopts});
  }
  const std::vector<std::uint64_t> ids = client.submit_batch(jobs);
  int exit_code = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    core::AttackResponse resp = client.wait(ids[i]);
    const std::string suffix = ".job" + std::to_string(i);
    out << "job " << i << " (" << inputs[i] << "): ";
    if (!resp.ok()) {
      out << "error: " << resp.message << "\n";
      if (exit_code == 0) exit_code = core::exit_code_for(resp.error);
      continue;
    }
    if (attack == "snmf") report_estimated_rank(resp, out);
    int job_code = 0;
    if (attack == "lep") {
      write_lep_outputs(resp.lep(), flags, out, suffix);
    } else if (attack == "mip") {
      job_code = write_mip_outputs(resp, flags, out, suffix);
    } else {
      write_snmf_outputs(resp.snmf(), flags, out, suffix);
    }
    if (exit_code == 0) exit_code = job_code;
  }
  cobs.finish(core::AttackTelemetry{}, out);
  return exit_code;
}

int cmd_help(std::ostream& out) {
  out << "aspe_cli — drive the ASPE toolkit from files\n"
         "\n"
         "  convert     --in=src --out=dst --format={text,bin}\n"
         "              (re-encode any corpus file; source format is sniffed)\n"
         "  keygen      --dim=N --key=key.txt [--seed=S]\n"
         "  gen-data    --d=N --out=plain.txt [--rho=R] [--count=M] [--seed=S]\n"
         "              [--real [--lo=A] [--hi=B]]  (real-valued records)\n"
         "  encrypt     --key=key.txt --plain=plain.txt --out=db.txt [--seed=S]\n"
         "  trapdoor    --key=key.txt --plain=queries.txt --out=trap.txt [--seed=S]\n"
         "  decrypt     --key=key.txt --db=db.txt --out=plain.txt [--trapdoor]\n"
         "  make-index     --plain=records.txt --out=indexes.txt\n"
         "  make-trapdoor  --plain=queries.txt --out=trapdoors.txt [--seed=S]\n"
         "  mrse-index     --plain=records.txt --out=indexes.txt\n"
         "                 [--u=U] [--mu=..] [--sigma=..] [--seed=S]\n"
         "  mrse-trapdoor  --plain=queries.txt --out=trapdoors.txt (same flags)\n"
         "  score       --db=db.txt --trapdoors=trap.txt\n"
         "  attack-snmf --db=db.txt --trapdoors=trap.txt --out=recon.txt\n"
         "              [--rank=N (estimated from rank(R) when omitted)]\n"
         "              [--rank-tol=T (rank-estimate tolerance, default 1e-8)]\n"
         "              [--restarts=L] [--iters=N] [--seed=S]\n"
         "              [--session=s.txt [--append]]\n"
         "  attack-lep  --known-plain=leak.txt --db=db.txt --trapdoors=trap.txt\n"
         "              --out-records=rec.txt --out-queries=q.txt\n"
         "              [--session=s.txt [--append]]\n"
         "              (leak.txt: records aligned with the first db entries;\n"
         "               needs d+1 linearly independent ones)\n"
         "  attack-mip  --known-plain=leak.txt --db=db.txt --trapdoors=trap.txt\n"
         "              --out=q.txt [--trapdoor-id=J] [--mu=..] [--sigma=..]\n"
         "              [--l=3] [--time-limit=30] [--max-nodes=200000]\n"
         "              (--max-nodes caps branch-and-bound nodes; the attack\n"
         "               reports NodeLimit when the cap trips first)\n"
         "  serve       --socket=PATH [--workers=N] [--queue=N]\n"
         "              [--memory-budget-mb=N (bounds all warm state:\n"
         "               corpora, score matrices, sessions, MIP bases)]\n"
         "              (attack-service daemon on a Unix socket; one warm-\n"
         "               state store, bounded FIFO job queue — docs/svc.md)\n"
         "  submit      --socket=PATH --attack={lep,mip,snmf} <attack flags>\n"
         "              [--deadline-ms=N] [--inline] | --ping | --shutdown\n"
         "              (ship one job to a running daemon; same flags and\n"
         "               same output files as the attack-* commands;\n"
         "               --input=a,b,c ships one job per database in a\n"
         "               single batch — outputs suffixed .jobN, one status\n"
         "               line each; --ping prints the daemon's stats line)\n"
         "  help\n"
         "\n"
         "Every attack-* command also accepts the global --threads=N flag:\n"
         "N parallel threads (0 or `all` = every hardware thread; default 1).\n"
         "Results are bit-identical for any thread count.\n"
         "\n"
         "Uniform I/O flags (see docs/io.md):\n"
         "  --format={text,bin}        output encoding (default text); input\n"
         "                             encodings are always auto-detected\n"
         "  --input=..., --output=...  aliases for each command's primary\n"
         "                             input/output flag (--db/--plain, --out)\n"
         "\n"
         "Incremental sessions (see docs/incremental.md):\n"
         "  --session=PATH  run attack-snmf / attack-lep through a persistent\n"
         "                  incremental session stored at PATH\n"
         "  --append        inputs are a *delta* folded into the restored\n"
         "                  session (score matrix grows in place, the\n"
         "                  factorization / LU solves warm-restart)\n"
         "\n"
         "Attack telemetry (see docs/observability.md):\n"
         "  --trace-json=trace.json    span/counter event array for\n"
         "                             chrome://tracing or ui.perfetto.dev\n"
         "  --metrics-json=m.json      wall time, span aggregates, counters\n"
         "Attaching either never changes attack output.\n"
         "\n"
         "Exit codes (docs/api.md): 0 ok, 1 internal error, 2 bad input,\n"
         "3 no feasible solution (attack-mip), 4 attack preconditions not\n"
         "met yet, 5 budget exhausted (deadline / queue / limits).\n"
         "\n"
         "Corpus files use the io/ text format or the io::v2 binary\n"
         "container (magic \"ASPEIO2\"); `score` and `attack-snmf` need no\n"
         "key — that is the point of the paper.\n";
  return 0;
}

}  // namespace

int run_command(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.empty()) {
    cmd_help(err);
    return 2;
  }
  const std::string& name = args[0];
  std::vector<const char*> argv = {"aspe_cli"};
  for (std::size_t i = 1; i < args.size(); ++i) argv.push_back(args[i].c_str());
  try {
    const CliFlags flags(static_cast<int>(argv.size()), argv.data());
    if (name == "keygen") return cmd_keygen(flags, out);
    if (name == "gen-data") return cmd_gen_data(flags, out);
    if (name == "encrypt") return cmd_encrypt(flags, out, /*trapdoor=*/false);
    if (name == "trapdoor") return cmd_encrypt(flags, out, /*trapdoor=*/true);
    if (name == "decrypt") return cmd_decrypt(flags, out);
    if (name == "score") return cmd_score(flags, out);
    if (name == "make-index") return cmd_make_index(flags, out);
    if (name == "make-trapdoor") return cmd_make_trapdoor(flags, out);
    if (name == "mrse-index") return cmd_mrse_index(flags, out);
    if (name == "mrse-trapdoor") return cmd_mrse_trapdoor(flags, out);
    if (name == "convert") return cmd_convert(flags, out);
    if (name == "attack-snmf") return cmd_attack_snmf(flags, out);
    if (name == "attack-lep") return cmd_attack_lep(flags, out);
    if (name == "attack-mip") return cmd_attack_mip(flags, out);
    if (name == "serve") return cmd_serve(flags, out);
    if (name == "submit") return cmd_submit(flags, out);
    if (name == "help" || name == "--help") return cmd_help(out);
    err << "unknown command: " << name << "\n";
    cmd_help(err);
    return 2;
  } catch (const std::exception& e) {
    // The one error boundary: classify onto the ErrorCode taxonomy and map
    // to the documented exit codes (2 bad input, 4 not ready, 5 budget,
    // 1 internal).
    err << "error: " << e.what() << "\n";
    return core::exit_code_for(core::error_code_of(e));
  }
}

int run_command(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run_command(args, out, err);
}

}  // namespace aspe::cli
