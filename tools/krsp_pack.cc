// Converter and inspector for `.krspb` zero-copy instance containers.
//
//   $ krsp_pack --in=instance.kri --out=instance.krspb    # pack text
//   $ krsp_pack --in=instance.krspb --out=instance.kri    # unpack
//   $ krsp_pack --info=instance.krspb     # header as one JSON line
//   $ krsp_pack --verify=instance.krspb   # full validation, exit 0/1
//
// Direction is chosen by the --out suffix; any input readable as either
// format works as --in (suffix decides the parser). --verify runs the
// complete CsrContainer::open contract — magic, endianness, section
// bounds/alignment, CSR monotonicity, edge-id permutation, content
// digest, then the instance rule (non-negative weights, a valid stored
// query) — and prints the first violated invariant on failure; --info
// opens the file the same way, so neither prints a container the
// catalog would refuse. CI proves the committed corpus intact without
// this tool: a fresh scripts/make_corpus.sh run must match it byte for
// byte (`diff -r`), and the ctests that serve it open every file.
#include <iostream>

#include "core/io.h"
#include "server/wire.h"
#include "store/container.h"
#include "util/cli.h"

namespace {

using namespace krsp;

constexpr char kUsage[] =
    "usage: krsp_pack --in=<file> --out=<file> | --info=<file.krspb> | "
    "--verify=<file.krspb>";

bool is_container(const std::string& path) {
  return path.size() >= 6 && path.ends_with(".krspb");
}

int info(const std::string& path) {
  const store::CsrContainer c = store::CsrContainer::open(path);
  server::wire::ObjectWriter w;
  w.field("file", path);
  w.field("n", static_cast<std::int64_t>(c.num_vertices()));
  w.field("m", static_cast<std::int64_t>(c.num_edges()));
  w.field("s", static_cast<std::int64_t>(c.s()));
  w.field("t", static_cast<std::int64_t>(c.t()));
  w.field("k", static_cast<std::int64_t>(c.k()));
  w.field("delay_bound", static_cast<std::int64_t>(c.delay_bound()));
  w.field("digest", store::hex_digest(c.digest()));
  w.field("file_bytes", c.file_bytes());
  std::cout << w.done() << "\n";
  return 0;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string in = cli.get_string("in", "");
  const std::string out = cli.get_string("out", "");
  const std::string info_path = cli.get_string("info", "");
  const std::string verify_path = cli.get_string("verify", "");
  cli.reject_unknown();

  try {
    if (!info_path.empty()) return info(info_path);
    if (!verify_path.empty()) {
      const store::CsrContainer c = store::CsrContainer::open(verify_path);
      std::cout << "ok: " << verify_path << " n=" << c.num_vertices()
                << " m=" << c.num_edges()
                << " digest=" << store::hex_digest(c.digest()) << "\n";
      return 0;
    }
    if (in.empty() || out.empty()) {
      std::cerr << kUsage << "\n";
      return 2;
    }
    const core::Instance inst = is_container(in)
                                    ? store::CsrContainer::open(in).instance()
                                    : core::read_instance_file(in);
    if (is_container(out)) {
      store::CsrContainer::write_file(out, inst);
    } else {
      core::write_instance_file(out, inst);
    }
    std::cout << "wrote " << out << ": " << inst.summary() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "krsp_pack: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
