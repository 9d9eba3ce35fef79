"""Unit tests for the lint package internals (ctest entry: lint_unit).

The fixture suite (tests/lint_fixtures) proves each rule end-to-end
through the driver; these tests pin the internal contracts the fixtures
cannot see — scanner state transitions, the pure graph checker on
synthetic include maps, and the static classifier on tricky
declarations.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cpptok
import determinism
import layering
import shared_state


class ScannerTest(unittest.TestCase):
    def test_raw_string_contents_blanked_and_resynced(self):
        text = 'auto s = R"(has " quote and std::mt19937)"; std::mt19937 g;\n'
        stripped = cpptok.scan(text).stripped
        # Exactly one live mention survives: the real declaration.
        self.assertEqual(stripped.count("mt19937"), 1)
        self.assertIn("; std::mt19937 g;", stripped)

    def test_raw_string_custom_delimiter(self):
        text = 'auto s = R"xy(text )" still raw )xy"; int after = 1;\n'
        stripped = cpptok.scan(text).stripped
        self.assertNotIn("still raw", stripped)
        self.assertIn("int after = 1;", stripped)

    def test_identifier_ending_in_r_is_not_a_raw_prefix(self):
        text = 'auto s = UPPER"just a string"; std::mt19937 g;\n'
        stripped = cpptok.scan(text).stripped
        self.assertIn("mt19937", stripped)
        self.assertNotIn("just a string", stripped)

    def test_line_spliced_comment_continues(self):
        text = "// spliced \\\nstd::mt19937 hidden;\nint real;\n"
        stripped = cpptok.scan(text).stripped
        self.assertNotIn("mt19937", stripped)
        self.assertIn("int real;", stripped)
        # Line structure intact: finding lines stay 1:1 with the raw file.
        self.assertEqual(stripped.count("\n"), text.count("\n"))

    def test_spliced_string_stays_string(self):
        text = 'const char* s = "abc \\\nstd::mt19937 still";\nint x;\n'
        stripped = cpptok.scan(text).stripped
        self.assertNotIn("mt19937", stripped)
        self.assertIn("int x;", stripped)

    def test_include_header_names_survive(self):
        text = '#include "util/log.hpp"\n#include <chrono>\n'
        result = cpptok.scan(text)
        headers = [t.text for t in result.tokens if t.kind == "header"]
        self.assertEqual(headers, ['"util/log.hpp"', "<chrono>"])
        self.assertIn('"util/log.hpp"', result.stripped)

    def test_control_bytes_classify_binary(self):
        result = cpptok.scan("ok\nbad\x00line\nok\n")
        self.assertTrue(result.is_binary)
        self.assertEqual(result.control_lines, [2])

    def test_digit_separator_is_not_a_char_literal(self):
        stripped = cpptok.scan("int n = 1'000'000; int m = 2;\n").stripped
        self.assertIn("int m = 2;", stripped)


class LayeringTest(unittest.TestCase):
    def _check(self, includes):
        known = set(includes)
        return layering.check_graph({k: v for k, v in includes.items()},
                                    known)

    def test_synthetic_include_cycle_detected(self):
        includes = {
            "topology/a.hpp": [(1, "topology/b.hpp")],
            "topology/b.hpp": [(1, "topology/c.hpp")],
            "topology/c.hpp": [(1, "topology/a.hpp")],
        }
        findings = self._check(includes)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule_id, "layering")
        self.assertIn("include cycle", findings[0].message)
        self.assertIn("topology/a.hpp -> topology/b.hpp -> topology/c.hpp "
                      "-> topology/a.hpp", findings[0].message)

    def test_upward_include_detected(self):
        includes = {
            "util/low.hpp": [(3, "gmp/high.hpp")],
            "gmp/high.hpp": [],
        }
        findings = self._check(includes)
        self.assertEqual(len(findings), 1)
        self.assertIn("upward include", findings[0].message)
        self.assertEqual(findings[0].rel, "src/util/low.hpp")
        self.assertEqual(findings[0].line, 3)

    def test_downward_and_top_peer_edges_clean(self):
        includes = {
            "util/base.hpp": [],
            "net/mid.hpp": [(1, "util/base.hpp")],
            "exp/driver.cpp": [(1, "analysis/report.hpp")],
            "analysis/report.hpp": [(1, "net/mid.hpp")],
        }
        self.assertEqual(self._check(includes), [])

    def test_unknown_module_and_unresolved_include(self):
        includes = {
            "mystery/new.hpp": [],
            "util/ok.hpp": [(2, "util/gone.hpp")],
        }
        findings = self._check(includes)
        details = sorted(f.message for f in findings)
        self.assertEqual(len(findings), 2)
        self.assertTrue(any("no rank" in m for m in details))
        self.assertTrue(any("unresolved include" in m for m in details))

    def test_repo_graph_summary_is_deterministic(self):
        includes = {
            "util/a.hpp": [(1, "util/b.hpp")],
            "util/b.hpp": [],
        }
        s1 = layering.render_summary(
            layering.build_summary(includes, set(includes)))
        s2 = layering.render_summary(
            layering.build_summary(dict(reversed(list(includes.items()))),
                                   set(includes)))
        self.assertEqual(s1, s2)


class TestOnlyHeaderTest(unittest.TestCase):
    def _check(self, headers, program_includes):
        return layering.check_test_only_headers(headers, program_includes)

    def test_own_cpp_is_not_a_user(self):
        findings = self._check(
            {"net/probe.hpp": set()},
            {"src/net/probe.cpp": [(1, "net/probe.hpp")]})
        self.assertEqual([(f.rel, f.rule_id) for f in findings],
                         [("src/net/probe.hpp", "test-only-header")])

    def test_any_other_program_file_is_a_user(self):
        for user in ("src/gmp/plan.cpp", "src/net/other.hpp",
                     "tools/cli.cpp", "bench/b.cpp", "examples/e.cpp",
                     "perfbench/sim.cpp"):
            with self.subTest(user=user):
                self.assertEqual(self._check(
                    {"net/probe.hpp": set()},
                    {user: [(3, "net/probe.hpp")]}), [])

    def test_allow_file_pragma_keeps_a_header(self):
        self.assertEqual(self._check(
            {"gmp/neighborhood.hpp": {"test-only-header"}}, {}), [])


class SharedStateTest(unittest.TestCase):
    def _statics(self, code):
        tokens = cpptok.scan(code).tokens
        return [d.name for d in shared_state.find_statics("src/x.cpp",
                                                          tokens)]

    def test_mutable_statics_found(self):
        code = """
        static LogLevel level = LogLevel::kOff;
        static std::atomic<bool> flag{false};
        void f() { static Registry instance; }
        static std::ostream* sink = nullptr;
        """
        self.assertEqual(self._statics(code),
                         ["level", "flag", "instance", "sink"])

    def test_functions_and_immutables_skipped(self):
        code = """
        static std::vector<int> intersect(const std::vector<int>& a);
        static constexpr int kBits = 7;
        static const char* const kName = "x";
        static bool earlier(const Key& a, const Key& b) { return a < b; }
        static_assert(sizeof(int) == 4);
        auto x = static_cast<double>(3);
        """
        self.assertEqual(self._statics(code), [])

    def test_template_member_not_confused_by_angles(self):
        code = "static std::unordered_map<int, std::vector<int>> cache;"
        self.assertEqual(self._statics(code), ["cache"])

    def test_thread_local_counts_as_shared(self):
        code = "thread_local std::int64_t scratch = 0;"
        self.assertEqual(self._statics(code), ["scratch"])


class DeterminismTest(unittest.TestCase):
    def _findings(self, code, rel="src/net/x.cpp"):
        sc = cpptok.scan(code)
        out = []
        determinism.check_file(rel, sc.tokens, [], out,
                               lambda line, rule: False)
        return out

    def test_stream_write_in_unordered_loop_fires(self):
        code = """
        std::unordered_map<int, double> m_;
        void dump(std::ostream& os) {
          for (const auto& [k, v] : m_) os << k;
        }
        """
        self.assertEqual(len(self._findings(code)), 1)

    def test_collect_then_sort_is_silent(self):
        code = """
        std::unordered_map<int, double> m_;
        std::vector<int> keys() {
          std::vector<int> out;
          for (const auto& [k, v] : m_) out.push_back(k);
          std::sort(out.begin(), out.end());
          return out;
        }
        """
        self.assertEqual(self._findings(code), [])

    def test_push_back_without_sort_fires(self):
        code = """
        std::unordered_set<int> s_;
        void fill(std::vector<int>& out) {
          for (int v : s_) out.push_back(v);
        }
        """
        self.assertEqual(len(self._findings(code)), 1)

    def test_accessor_return_iteration_fires(self):
        code = """
        struct T {
          const std::unordered_map<int, int>& linkStats() { return m_; }
          std::unordered_map<int, int> m_;
        };
        void dump(T& t, std::ostream& os) {
          for (const auto& [k, v] : t.linkStats()) os << k;
        }
        """
        self.assertEqual(len(self._findings(code)), 1)

    def test_integer_counter_accumulation_is_silent(self):
        code = """
        std::unordered_map<int, long> m_;
        long total_ = 0;
        void tally() {
          for (const auto& [k, v] : m_) total_ += v;
        }
        """
        self.assertEqual(self._findings(code), [])


if __name__ == "__main__":
    unittest.main()
