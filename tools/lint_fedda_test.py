#!/usr/bin/env python3
"""Self-test for tools/lint_fedda.py, run as the `lint_selftest` ctest
target.

Every determinism rule gets at least one positive case (a clean tree
passes) and one negative case (a violating fixture is flagged with the
right rule id), plus coverage for the allowlist machinery and the legacy
repo-invariant rules. The fixtures are synthetic trees built in a tempdir,
so the test is independent of the real repo's content.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lint_fedda  # noqa: E402


def lint(files: dict[str, str]) -> list[str]:
    """Materializes `files` (relpath -> content) in a fresh root and runs
    every lint rule over it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, content in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        return lint_fedda.run(root)


def rules_of(errors: list[str]) -> set[str]:
    out = set()
    for err in errors:
        start = err.index("[") + 1
        out.add(err[start:err.index("]", start)])
    return out


class AmbientEntropyRules(unittest.TestCase):
    def test_random_device_flagged_in_src(self):
        errors = lint({"src/fl/bad.cc": "std::random_device rd;\n"})
        self.assertEqual(rules_of(errors), {"det-random-device"})
        self.assertIn("src/fl/bad.cc:1", errors[0])

    def test_random_device_allowed_in_obs(self):
        self.assertEqual(
            lint({"src/obs/probe.cc": "std::random_device rd;\n"}), [])

    def test_libc_rand_flagged(self):
        errors = lint({"src/tensor/bad.cc": "int x = rand();\n"})
        self.assertEqual(rules_of(errors), {"det-libc-rand"})

    def test_srand_flagged(self):
        errors = lint({"src/core/bad.cc": "srand(42);\n"})
        self.assertEqual(rules_of(errors), {"det-libc-rand"})

    def test_rand_substring_identifiers_pass(self):
        self.assertEqual(
            lint({"src/core/ok.cc": "int grand(); int y = grand();\n"}), [])

    def test_time_seeded_rng_flagged(self):
        errors = lint(
            {"src/fl/bad.cc": "std::mt19937 gen(time(nullptr));\n"})
        self.assertEqual(rules_of(errors), {"det-time-seed"})

    def test_clock_seeded_seed_call_flagged(self):
        errors = lint({
            "src/fl/bad.cc":
                "gen.seed(std::chrono::steady_clock::now());\n"})
        self.assertEqual(rules_of(errors), {"det-time-seed"})

    def test_option_seeded_rng_passes(self):
        self.assertEqual(
            lint({"src/fl/ok.cc": "std::mt19937 gen(options.seed);\n"}), [])

    def test_clock_without_rng_passes(self):
        self.assertEqual(
            lint({"src/core/timer_impl.cc":
                  "auto t = std::chrono::steady_clock::now();\n"}), [])

    def test_thread_id_flagged_in_src(self):
        errors = lint(
            {"src/fl/bad.cc": "auto id = std::this_thread::get_id();\n"})
        self.assertEqual(rules_of(errors), {"det-thread-id"})

    def test_thread_id_allowed_in_obs(self):
        self.assertEqual(
            lint({"src/obs/trace_impl.cc":
                  "auto id = std::this_thread::get_id();\n"}), [])

    def test_mentions_in_comments_and_strings_pass(self):
        self.assertEqual(lint({
            "src/fl/ok.cc":
                "// std::random_device is banned here\n"
                'const char* kMsg = "rand() and time(nullptr)";\n'}), [])


class SimdScopeRule(unittest.TestCase):
    def test_avx2_intrinsic_flagged_outside_kernels(self):
        errors = lint({
            "src/hgn/bad.cc":
                "__m256 v = _mm256_add_ps(a, b);\n"})
        self.assertEqual(rules_of(errors), {"simd-outside-kernels"})
        self.assertIn("src/hgn/bad.cc:1", errors[0])

    def test_sse_intrinsic_flagged_outside_kernels(self):
        errors = lint({
            "src/tensor/ops_bad.cc": "auto v = _mm_mul_ps(a, b);\n"})
        self.assertEqual(rules_of(errors), {"simd-outside-kernels"})

    def test_neon_intrinsic_flagged_outside_kernels(self):
        errors = lint({
            "src/fl/bad.cc": "float32x4_t v = vaddq_f32(a, b);\n"})
        self.assertEqual(rules_of(errors), {"simd-outside-kernels"})

    def test_intrinsic_header_flagged_outside_kernels(self):
        errors = lint({"src/core/bad.cc": "#include <immintrin.h>\n"})
        self.assertEqual(rules_of(errors), {"simd-outside-kernels"})

    def test_intrinsics_allowed_inside_kernels(self):
        self.assertEqual(lint({
            "src/tensor/kernels/avx2_impl.cc":
                "#include <immintrin.h>\n"
                "__m256 v = _mm256_add_ps(a, b);\n"}), [])

    def test_mention_in_comment_passes(self):
        self.assertEqual(lint({
            "src/tensor/ops_ok.cc":
                "// _mm256_fmadd_ps would change rounding; see kernels/\n"
                'const char* kNote = "_mm_add_ps lives in kernels";\n'}), [])

    def test_plain_identifiers_pass(self):
        # Underscored names and vector-ish helpers that are not intrinsic
        # calls must not trip the rule.
        self.assertEqual(lint({
            "src/tensor/ops_ok.cc":
                "int _mm_lookalike = 0; value_f32(x);\n"
                "vadd_helper(a, b);\n"}), [])


class UnorderedIterationRule(unittest.TestCase):
    FL_LOOP = (
        "#include <unordered_map>\n"
        "void Accumulate() {\n"
        "  std::unordered_map<int, double> acc;\n"
        "  for (const auto& kv : acc) { consume(kv); }\n"
        "}\n")

    def test_flagged_in_fl(self):
        errors = lint({"src/fl/bad.cc": self.FL_LOOP})
        self.assertEqual(rules_of(errors), {"det-unordered-iter"})
        self.assertIn("src/fl/bad.cc:4", errors[0])

    def test_flagged_in_tensor(self):
        errors = lint({"src/tensor/bad.cc": self.FL_LOOP})
        self.assertEqual(rules_of(errors), {"det-unordered-iter"})

    def test_ordered_map_passes_in_fl(self):
        self.assertEqual(lint({
            "src/fl/ok.cc":
                "#include <map>\n"
                "void Accumulate() {\n"
                "  std::map<int, double> acc;\n"
                "  for (const auto& kv : acc) { consume(kv); }\n"
                "}\n"}), [])

    def test_unordered_member_iterated_via_this_flagged(self):
        errors = lint({
            "src/fl/bad.cc":
                "#include <unordered_set>\n"
                "struct S {\n"
                "  std::unordered_set<int> keys_;\n"
                "  void Sum() { for (int k : keys_) use(k); }\n"
                "};\n"})
        self.assertEqual(rules_of(errors), {"det-unordered-iter"})

    def test_flagged_inside_serialization_fn_outside_scope_dirs(self):
        errors = lint({
            "src/graph/io.cc":
                "#include <unordered_map>\n"
                "core::Status SaveGraph(Writer* w) {\n"
                "  std::unordered_map<int, int> index;\n"
                "  for (const auto& kv : index) { w->Put(kv); }\n"
                "  return core::Status::OK();\n"
                "}\n"})
        self.assertEqual(rules_of(errors), {"det-unordered-iter"})

    def test_passes_outside_scope_dirs_and_serialization(self):
        self.assertEqual(lint({
            "src/graph/walk.cc":
                "#include <unordered_map>\n"
                "void CollectNeighbors() {\n"
                "  std::unordered_map<int, int> index;\n"
                "  for (const auto& kv : index) { visit(kv); }\n"
                "}\n"}), [])

    def test_serialization_declaration_only_passes(self):
        # A declaration (no body) must not open a bogus span covering the
        # rest of the file.
        self.assertEqual(lint({
            "src/graph/decl.cc":
                "#include <unordered_map>\n"
                "core::Status SaveGraph(Writer* w);\n"
                "void Visit() {\n"
                "  std::unordered_map<int, int> index;\n"
                "  for (const auto& kv : index) { visit(kv); }\n"
                "}\n"}), [])


class FuzzTargetRule(unittest.TestCase):
    HEADER = {
        "src/net/codec.h":
            "#ifndef FEDDA_NET_CODEC_H_\n"
            "#define FEDDA_NET_CODEC_H_\n"
            "core::Status DecodeFoo(const std::vector<uint8_t>& body);\n"
            "#endif  // FEDDA_NET_CODEC_H_\n",
    }
    TARGET = (
        "#include \"net/codec.h\"\n"
        "FEDDA_FUZZ_TARGET(Foo) {\n"
        "  (void)DecodeFoo(std::vector<uint8_t>(data, data + size));\n"
        "}\n")

    def test_unfuzzed_decoder_flagged(self):
        errors = lint(dict(self.HEADER))
        self.assertEqual(rules_of(errors), {"fuzz-target-missing"})
        self.assertIn("src/net/codec.h:3", errors[0])
        self.assertIn("DecodeFoo", errors[0])

    def test_registered_target_satisfies(self):
        files = dict(self.HEADER)
        files["tests/fuzz/fuzz_foo.cc"] = self.TARGET
        files["tests/fuzz/CMakeLists.txt"] = "fedda_add_fuzz_target(foo)\n"
        self.assertEqual(lint(files), [])

    def test_unregistered_target_source_flagged(self):
        files = dict(self.HEADER)
        files["tests/fuzz/fuzz_foo.cc"] = self.TARGET
        files["tests/fuzz/CMakeLists.txt"] = "# nothing registered\n"
        errors = lint(files)
        self.assertEqual(rules_of(errors), {"fuzz-target-missing"})
        # Both the orphan source and the now-uncovered decoder are flagged.
        self.assertTrue(
            any("tests/fuzz/fuzz_foo.cc" in e for e in errors))
        self.assertTrue(any("DecodeFoo" in e for e in errors))

    def test_mention_in_comment_does_not_count(self):
        files = dict(self.HEADER)
        files["tests/fuzz/fuzz_foo.cc"] = (
            "// DecodeFoo is covered elsewhere, honest\n"
            "FEDDA_FUZZ_TARGET(Foo) { (void)data; (void)size; }\n")
        files["tests/fuzz/CMakeLists.txt"] = "fedda_add_fuzz_target(foo)\n"
        errors = lint(files)
        self.assertEqual(rules_of(errors), {"fuzz-target-missing"})
        self.assertIn("DecodeFoo", errors[0])

    def test_surface_is_scoped(self):
        # Decoder-shaped names outside the surface inventory are not held
        # to the rule (e.g. dataset loaders that read trusted local files).
        self.assertEqual(lint({
            "src/data/loader.h":
                "#ifndef FEDDA_DATA_LOADER_H_\n"
                "#define FEDDA_DATA_LOADER_H_\n"
                "void LoadDataset(const std::string& path);\n"
                "#endif  // FEDDA_DATA_LOADER_H_\n"}), [])

    def test_allowlist_can_suppress(self):
        files = dict(self.HEADER)
        files["tools/lint_allowlist.txt"] = (
            "fuzz-target-missing src/net/codec.h -- DecodeFoo is a "
            "fixture in a doc example, not a real decoder\n")
        self.assertEqual(lint(files), [])


class AllowlistMachinery(unittest.TestCase):
    BAD = {"src/fl/bad.cc": "std::random_device rd;\n"}

    def test_justified_entry_suppresses(self):
        files = dict(self.BAD)
        files["tools/lint_allowlist.txt"] = (
            "det-random-device src/fl/bad.cc -- device id salt, "
            "never feeds numerics\n")
        self.assertEqual(lint(files), [])

    def test_entry_without_justification_is_flagged(self):
        files = dict(self.BAD)
        files["tools/lint_allowlist.txt"] = (
            "det-random-device src/fl/bad.cc\n")
        rules = rules_of(lint(files))
        # The entry is malformed, so it also fails to suppress.
        self.assertEqual(
            rules, {"allowlist-missing-justification", "det-random-device"})

    def test_unused_entry_is_flagged(self):
        files = {
            "src/fl/ok.cc": "int x = 0;\n",
            "tools/lint_allowlist.txt":
                "det-random-device src/fl/gone.cc -- was removed\n",
        }
        self.assertEqual(rules_of(lint(files)), {"allowlist-unused"})

    def test_comments_and_blanks_ignored(self):
        files = {
            "src/fl/ok.cc": "int x = 0;\n",
            "tools/lint_allowlist.txt": "# a comment\n\n",
        }
        self.assertEqual(lint(files), [])


class LegacyRepoInvariants(unittest.TestCase):
    def test_throw_flagged(self):
        errors = lint({"src/core/bad.cc": "void F() { throw 1; }\n"})
        self.assertEqual(rules_of(errors), {"no-throw"})

    def test_guard_mismatch_flagged(self):
        errors = lint({
            "src/core/thing.h":
                "#ifndef WRONG_H_\n#define WRONG_H_\n"
                "#endif  // WRONG_H_\n"})
        self.assertEqual(rules_of(errors), {"include-guard"})

    def test_good_guard_passes(self):
        self.assertEqual(lint({
            "src/core/thing.h":
                "#ifndef FEDDA_CORE_THING_H_\n"
                "#define FEDDA_CORE_THING_H_\n"
                "#endif  // FEDDA_CORE_THING_H_\n"}), [])

    def test_unregistered_test_flagged(self):
        errors = lint({
            "tests/CMakeLists.txt": "# nothing registered\n",
            "tests/core/orphan_test.cc": "int main() { return 0; }\n"})
        self.assertEqual(rules_of(errors), {"test-unregistered"})


class SurfaceInventory(unittest.TestCase):
    HEADER = (
        "#ifndef FEDDA_NET_CODEC_H_\n"
        "#define FEDDA_NET_CODEC_H_\n"
        "core::Status DecodeFoo(const std::vector<uint8_t>& body);\n"
        "core::Status ServeBlob(int fd, const std::vector<uint8_t>& raw);\n"
        "void PackBits(const std::vector<uint8_t>& bits);\n"
        "#endif  // FEDDA_NET_CODEC_H_\n")

    def inventory(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for rel, content in files.items():
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(content)
            return lint_fedda.surface_inventory(root)

    def test_byte_entry_tier_detected(self):
        entries = {(e["name"], e["kind"])
                   for e in self.inventory({"src/net/codec.h": self.HEADER})}
        self.assertIn(("DecodeFoo", "decoder"), entries)
        self.assertIn(("ServeBlob", "byte-entry"), entries)
        # Takes the byte span but returns void: a producer, not an entry.
        self.assertNotIn(("PackBits", "byte-entry"), entries)

    def test_decoder_kind_wins_dedup(self):
        header = (
            "#ifndef FEDDA_NET_CODEC_H_\n"
            "#define FEDDA_NET_CODEC_H_\n"
            "core::Status DecodeFoo(const std::vector<uint8_t>& body);\n"
            "#endif  // FEDDA_NET_CODEC_H_\n")
        entries = [e for e in self.inventory({"src/net/codec.h": header})
                   if e["name"] == "DecodeFoo"]
        self.assertEqual(1, len(entries))
        self.assertEqual("decoder", entries[0]["kind"])

    def test_byte_entry_not_held_to_fuzz_rule(self):
        header = (
            "#ifndef FEDDA_NET_SERVE_H_\n"
            "#define FEDDA_NET_SERVE_H_\n"
            "core::Status ServeBlob(int fd, const std::vector<uint8_t>& "
            "raw);\n"
            "#endif  // FEDDA_NET_SERVE_H_\n")
        self.assertEqual(lint({"src/net/serve.h": header}), [])


class AnalyzerNamespaceSharing(unittest.TestCase):
    """az-* rows in the shared allowlist belong to fedda_analyze; the lint
    must neither report them unused nor choke on them — except that
    az-unordered-iter doubles as a suppression for the regex rule that
    checks the same loops."""

    def test_az_entry_not_flagged_unused(self):
        files = {
            "src/fl/ok.cc": "int x = 0;\n",
            "tools/lint_allowlist.txt":
                "az-tb-abort src/fl/wire.cc -- analyzer-owned\n",
        }
        self.assertEqual(lint(files), [])

    def test_az_unordered_entry_suppresses_regex_rule(self):
        files = {
            "src/fl/bad.cc": UnorderedIterationRule.FL_LOOP,
            "tools/lint_allowlist.txt":
                "az-unordered-iter src/fl/bad.cc -- iteration order "
                "proven sorted upstream\n",
        }
        self.assertEqual(lint(files), [])


if __name__ == "__main__":
    unittest.main()
