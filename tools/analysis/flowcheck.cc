// flowcheck — cross-file Status-discipline static analysis
// (`fairlaw_check flowcheck`).
//
// The pass next to lint (local hygiene), deps (layering), and detcheck
// (determinism) with cross-file knowledge: it builds a signature index
// of every Status/Result<T>-returning function declared in src/**
// headers (tools/analysis/index.h), then walks every .cc file under
// src/ and tools/ with a brace-matching, scope-aware pass that proves
// errors actually flow somewhere. The repo's contract (base/status.h: every
// fallible operation returns a Status) is worthless if a caller can
// silently drop the return — in an unattended fairlaw_serve daemon a
// dropped Status is a wrong four-fifths verdict, not a crashed CLI.
//
// Rules (escape hatch: a `flowcheck: allow-<rule>` comment on the
// flagged line or the line above; suppressions are counted in the JSON
// artifact so they stay visible):
//
//   1. discarded-status
//        A call to an indexed fallible function used as a bare
//        expression statement — no assignment, no
//        FAIRLAW_RETURN_NOT_OK / FAIRLAW_CHECK_OK wrapper. A `(void)`
//        cast does not exempt the call by itself; it must carry the
//        allow marker so every deliberate discard names its reason.
//   2. unchecked-result
//        `.ValueOrDie()` / `.value()` / unary `*` / `->` on a local
//        declared `Result<T>` with no `name.ok()` check earlier in the
//        same or an enclosing scope. ValueOrDie's crash-on-error
//        contract is for call sites where failure is impossible by
//        construction — those carry the marker and say why.
//   3. status-in-task
//        Inside a ThreadPool::Submit/ParallelFor worker lambda: a bare
//        fallible call, or a Status local that is never read again
//        before the lambda ends. A worker's error must escape — into a
//        per-task slot or a mutex-guarded aggregator — or the morsel
//        engine audits on silently-partial results.
//   4. nodiscard-missing
//        An indexed src/** header declaration lacking the
//        FAIRLAW_NODISCARD macro. The compiler then warns on the
//        discards this pass cannot see (macro bodies, templates,
//        out-of-tree callers); flowcheck keeps the sweep complete.
//   5. dcheck-side-effect
//        FAIRLAW_DCHECK / FAIRLAW_DCHECK_OK arguments containing
//        ++/--/assignment or a call to an indexed fallible function.
//        These macros compile out under NDEBUG, so the side effect —
//        including the fallible operation itself — vanishes from
//        release builds.
#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tools/analysis/index.h"
#include "tools/analysis/lexer.h"
#include "tools/analysis/passes.h"
#include "tools/analysis/report.h"

namespace fairlaw::analysis {
namespace {

/// Half-open token range of a worker lambda's body: (body_open,
/// body_close) exclusive of both braces.
struct WorkerBody {
  size_t body_open = 0;
  size_t body_close = 0;
};

class FlowChecker {
 public:
  explicit FlowChecker(Reporter* reporter) : reporter_(*reporter) {}

  void CheckTree(const SourceTree& tree) {
    // Pass 1: headers. Build the cross-file signature index and check
    // the nodiscard sweep (rule 4) while each header's comments are at
    // hand.
    for (const SourceFile& file : tree.files) {
      if (file.top() != "src" || file.path.extension() != ".h") continue;
      const std::string& rel = file.rel;
      const LexResult& lex = file.lex;
      const size_t before = index_.functions().size();
      index_.AddHeader(rel, lex.tokens);
      for (size_t i = before; i < index_.functions().size(); ++i) {
        const FallibleFn& fn = index_.functions()[i];
        if (fn.has_nodiscard) continue;
        Report(
            rel, lex.comments, fn.line, "nodiscard-missing",
            "'" + fn.qualified + "' returns " + fn.return_type +
                " but is not declared FAIRLAW_NODISCARD: without it the "
                "compiler stays silent when a caller drops the error");
      }
    }

    // Pass 2: implementation files. The scope-aware error-flow rules
    // run over every .cc under src/ and tools/ against the index.
    for (const SourceFile& file : tree.files) {
      if (file.top() != "src" && file.top() != "tools") continue;
      if (file.path.extension() != ".cc") continue;
      CheckImplFile(file.rel, file.lex);
    }
  }

 private:
  /// Every flowcheck finding honors a `flowcheck: allow-<rule>` marker.
  void Report(const std::string& rel, const std::vector<Comment>& comments,
              size_t line, std::string rule, std::string message) {
    reporter_.Report("flowcheck", rel, comments, line, std::move(rule),
                     std::move(message));
  }

  // -- Token-stream helpers. -----------------------------------------------

  /// True when tokens[i] begins a statement: after ';', '{', '}',
  /// 'else'/'do', or the ')' of an if/while/for/switch header.
  bool IsStatementStart(std::span<const Token> tokens, size_t i,
                        const std::map<size_t, size_t>& open_of_close) const {
    if (i == 0) return true;
    const Token& prev = tokens[i - 1];
    if (prev.IsPunct(";") || prev.IsPunct("{") || prev.IsPunct("}")) {
      return true;
    }
    if (prev.IsIdent("else") || prev.IsIdent("do")) return true;
    if (prev.IsPunct(")")) {
      const auto it = open_of_close.find(i - 1);
      if (it != open_of_close.end() && it->second > 0) {
        const Token& head = tokens[it->second - 1];
        return head.IsIdent("if") || head.IsIdent("while") ||
               head.IsIdent("for") || head.IsIdent("switch");
      }
    }
    return false;
  }

  /// Maps each ')' token index to its '(' so statement-start checks can
  /// look behind closed condition headers without rescanning.
  static std::map<size_t, size_t> CloseToOpen(std::span<const Token> tokens) {
    std::map<size_t, size_t> map;
    std::vector<size_t> stack;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].IsPunct("(")) stack.push_back(i);
      if (tokens[i].IsPunct(")") && !stack.empty()) {
        map[i] = stack.back();
        stack.pop_back();
      }
    }
    return map;
  }

  /// Parses a postfix callee chain at `start` (`a.b->C::Fn(`); returns
  /// the index of the called name when the chain ends in a call, or
  /// tokens.size() when this is not a call statement.
  static size_t CalleeNameIndex(std::span<const Token> tokens, size_t start) {
    size_t k = start;
    if (k < tokens.size() && tokens[k].IsPunct("::")) ++k;  // ::fairlaw::Fn
    while (k + 1 < tokens.size()) {
      if (tokens[k].kind != TokenKind::kIdentifier) return tokens.size();
      const Token& next = tokens[k + 1];
      if (next.IsPunct("(")) return k;
      if (next.IsPunct("::") || next.IsPunct(".") || next.IsPunct("->")) {
        k += 2;
        continue;
      }
      return tokens.size();
    }
    return tokens.size();
  }

  /// Worker lambda bodies handed to ThreadPool::Submit/ParallelFor:
  /// lambda literals in argument position plus lambdas assigned to a
  /// name later passed as a task (the detcheck merge-order convention).
  static std::vector<WorkerBody> FindWorkerBodies(
      std::span<const Token> tokens) {
    std::vector<std::string> task_names;
    std::vector<size_t> intros;
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (!(tokens[i].IsIdent("Submit") || tokens[i].IsIdent("ParallelFor")) ||
          !tokens[i + 1].IsPunct("(")) {
        continue;
      }
      const size_t close = MatchingClose(tokens, i + 1);
      int depth = 0;
      for (size_t j = i + 1; j < close && j < tokens.size(); ++j) {
        if (tokens[j].IsPunct("(") || tokens[j].IsPunct("[") ||
            tokens[j].IsPunct("{")) {
          ++depth;
        }
        if (tokens[j].IsPunct(")") || tokens[j].IsPunct("]") ||
            tokens[j].IsPunct("}")) {
          --depth;
        }
        if (tokens[j].IsPunct("[") && depth == 2 &&
            (tokens[j - 1].IsPunct("(") || tokens[j - 1].IsPunct(","))) {
          intros.push_back(j);
        }
        if (depth == 1 && tokens[j].kind == TokenKind::kIdentifier &&
            (tokens[j - 1].IsPunct("(") || tokens[j - 1].IsPunct(",")) &&
            (tokens[j + 1].IsPunct(",") || tokens[j + 1].IsPunct(")"))) {
          task_names.push_back(tokens[j].text);
        }
      }
    }
    for (size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (tokens[i].kind == TokenKind::kIdentifier &&
          std::find(task_names.begin(), task_names.end(), tokens[i].text) !=
              task_names.end() &&
          tokens[i + 1].IsPunct("=") && tokens[i + 2].IsPunct("[")) {
        intros.push_back(i + 2);
      }
    }
    std::vector<WorkerBody> bodies;
    for (const size_t intro : intros) {
      const size_t intro_close = MatchingClose(tokens, intro);
      if (intro_close >= tokens.size()) continue;
      size_t j = intro_close + 1;
      if (j < tokens.size() && tokens[j].IsPunct("(")) {
        j = MatchingClose(tokens, j);
        if (j >= tokens.size()) continue;
        ++j;
      }
      while (j < tokens.size() && !tokens[j].IsPunct("{") &&
             !tokens[j].IsPunct(";") && !tokens[j].IsPunct(")")) {
        ++j;
      }
      if (j >= tokens.size() || !tokens[j].IsPunct("{")) continue;
      const size_t body_close = MatchingClose(tokens, j);
      if (body_close >= tokens.size()) continue;
      bodies.push_back(WorkerBody{j, body_close});
    }
    return bodies;
  }

  static bool InWorkerBody(const std::vector<WorkerBody>& bodies, size_t i) {
    for (const WorkerBody& body : bodies) {
      if (i > body.body_open && i < body.body_close) return true;
    }
    return false;
  }

  // -- Per-file driver. ----------------------------------------------------

  void CheckImplFile(const std::string& rel, const LexResult& lex) {
    const std::span<const Token> tokens(lex.tokens);
    const std::map<size_t, size_t> open_of_close = CloseToOpen(tokens);
    const std::vector<WorkerBody> workers = FindWorkerBodies(tokens);

    CheckDiscardedStatus(rel, tokens, lex.comments, open_of_close, workers);
    CheckUncheckedResult(rel, tokens, lex.comments);
    CheckStatusInTask(rel, tokens, lex.comments, open_of_close, workers);
    CheckDcheckSideEffect(rel, tokens, lex.comments);
  }

  /// Rule 1: a fallible call as a bare expression statement. `(void)`
  /// casts are parsed through so they still require the allow marker.
  void CheckDiscardedStatus(const std::string& rel,
                            std::span<const Token> tokens,
                            const std::vector<Comment>& comments,
                            const std::map<size_t, size_t>& open_of_close,
                            const std::vector<WorkerBody>& workers) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (InWorkerBody(workers, i)) continue;  // rule 3's jurisdiction
      if (!IsStatementStart(tokens, i, open_of_close)) continue;
      size_t start = i;
      if (tokens[i].IsPunct("(") && i + 2 < tokens.size() &&
          tokens[i + 1].IsIdent("void") && tokens[i + 2].IsPunct(")")) {
        start = i + 3;
      }
      const size_t callee = CalleeNameIndex(tokens, start);
      if (callee >= tokens.size()) continue;
      if (!index_.IsFallible(tokens[callee].text)) continue;
      const size_t close = MatchingClose(tokens, callee + 1);
      if (close + 1 >= tokens.size() || !tokens[close + 1].IsPunct(";")) {
        continue;  // result is consumed (member access, operator, ...)
      }
      Report(
          rel, comments, tokens[callee].line, "discarded-status",
          "call to fallible '" + tokens[callee].text +
              "' discards its Status/Result: assign and check it, wrap it "
              "in FAIRLAW_RETURN_NOT_OK/FAIRLAW_CHECK_OK, or (void)-cast "
              "it with a `flowcheck: allow-discarded-status` justification");
    }
  }

  /// Rule 2: Result<T> locals dereferenced before any ok() check in the
  /// same or an enclosing scope. Scopes are tracked by brace stack; a
  /// check covers an access iff the check's scope chain is a prefix of
  /// the access's (a check buried in some other block proves nothing).
  void CheckUncheckedResult(const std::string& rel,
                            std::span<const Token> tokens,
                            const std::vector<Comment>& comments) {
    struct ResultLocal {
      size_t decl = 0;
      std::vector<size_t> scope;  // open-brace token indices at decl
      // Scope chains of every `name.ok()` seen since the declaration.
      std::vector<std::vector<size_t>> checks;
    };
    std::map<std::string, ResultLocal> locals;
    std::vector<size_t> scope;

    auto is_prefix = [](const std::vector<size_t>& a,
                        const std::vector<size_t>& b) {
      if (a.size() > b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) return false;
      }
      return true;
    };

    auto report_access = [&](const std::string& name, size_t line,
                             const char* how) {
      Report(
          rel, comments, line, "unchecked-result",
          std::string("Result '") + name + "' is accessed via " + how +
              " with no prior '" + name +
              ".ok()' check in this or an enclosing scope: on error this "
              "aborts the process; check ok(), use "
              "FAIRLAW_ASSIGN_OR_RETURN, or add a `flowcheck: "
              "allow-unchecked-result` comment stating why failure is "
              "impossible here");
    };

    for (size_t i = 0; i < tokens.size(); ++i) {
      const Token& token = tokens[i];
      if (token.IsPunct("{")) {
        scope.push_back(i);
        continue;
      }
      if (token.IsPunct("}")) {
        if (!scope.empty()) scope.pop_back();
        continue;
      }

      // Immediate dereference of a fallible call's temporary:
      // `Fallible(...).ValueOrDie()` / `.value()` / `->`. No ok() check
      // can possibly precede this — the Result dies in the expression —
      // so it is unchecked by construction and must either bind the
      // Result first or carry a justification marker.
      if (token.kind == TokenKind::kIdentifier &&
          index_.IsFallible(token.text) && i + 1 < tokens.size() &&
          tokens[i + 1].IsPunct("(")) {
        const size_t close = MatchingClose(tokens, i + 1);
        const bool arrow_deref =
            close + 1 < tokens.size() && tokens[close + 1].IsPunct("->");
        const bool dot_die =
            close + 2 < tokens.size() && tokens[close + 1].IsPunct(".") &&
            (tokens[close + 2].IsIdent("ValueOrDie") ||
             tokens[close + 2].IsIdent("value"));
        if (arrow_deref || dot_die) {
          Report(
              rel, comments, tokens[close + 1].line, "unchecked-result",
              "result of fallible '" + token.text +
                  "' is dereferenced in the same expression: no ok() "
                  "check is possible on the temporary, so on error this "
                  "aborts the process; bind the Result and check it, or "
                  "add a `flowcheck: allow-unchecked-result` comment "
                  "stating why failure is impossible here");
          continue;
        }
      }

      // Declaration: [fairlaw::] Result < ... > name {=,(,{}.
      if (token.IsIdent("Result") && i + 1 < tokens.size() &&
          tokens[i + 1].IsPunct("<")) {
        int depth = 0;
        size_t j = i + 1;
        for (; j < tokens.size(); ++j) {
          if (tokens[j].IsPunct("<")) ++depth;
          if (tokens[j].IsPunct(">")) --depth;
          if (tokens[j].IsPunct(">>")) depth -= 2;
          if (tokens[j].IsPunct(";")) break;
          if (depth <= 0) break;
        }
        if (j >= tokens.size() || !tokens[j].IsPunct(">")) continue;
        ++j;
        while (j < tokens.size() &&
               (tokens[j].IsPunct("&") || tokens[j].IsPunct("*"))) {
          ++j;
        }
        if (j + 1 < tokens.size() &&
            tokens[j].kind == TokenKind::kIdentifier &&
            (tokens[j + 1].IsPunct("=") || tokens[j + 1].IsPunct("(") ||
             tokens[j + 1].IsPunct("{"))) {
          locals[tokens[j].text] = ResultLocal{j, scope, {}};
        }
        continue;
      }

      if (token.kind != TokenKind::kIdentifier) continue;
      const auto it = locals.find(token.text);
      if (it == locals.end() || i <= it->second.decl) continue;
      ResultLocal& local = it->second;

      // `name.ok(` — record the check with its scope chain. `name` as
      // the argument of FAIRLAW_ASSIGN_OR_RETURN-style macros never
      // reaches here because the macro name heads that statement.
      if (i + 2 < tokens.size() && tokens[i + 1].IsPunct(".") &&
          tokens[i + 2].IsIdent("ok")) {
        local.checks.push_back(scope);
        continue;
      }

      const char* how = nullptr;
      size_t line = token.line;
      if (i + 2 < tokens.size() && tokens[i + 1].IsPunct(".") &&
          (tokens[i + 2].IsIdent("ValueOrDie") ||
           tokens[i + 2].IsIdent("value"))) {
        how = tokens[i + 2].text == "value" ? ".value()" : ".ValueOrDie()";
      } else if (i + 1 < tokens.size() && tokens[i + 1].IsPunct("->")) {
        how = "operator->";
      } else if (i >= 2 && tokens[i - 1].IsPunct("*") &&
                 (tokens[i - 2].IsIdent("return") ||
                  (tokens[i - 2].kind != TokenKind::kIdentifier &&
                   tokens[i - 2].kind != TokenKind::kNumber &&
                   !tokens[i - 2].IsPunct(")") &&
                   !tokens[i - 2].IsPunct("]")))) {
        how = "unary *";
        line = tokens[i - 1].line;
      }
      if (how == nullptr) continue;

      bool checked = false;
      for (const std::vector<size_t>& check_scope : local.checks) {
        if (is_prefix(check_scope, scope)) {
          checked = true;
          break;
        }
      }
      if (!checked) report_access(token.text, line, how);
    }
  }

  /// Rule 3: errors swallowed inside worker lambdas — bare fallible
  /// calls, and Status locals that die in the body unread.
  void CheckStatusInTask(const std::string& rel,
                         std::span<const Token> tokens,
                         const std::vector<Comment>& comments,
                         const std::map<size_t, size_t>& open_of_close,
                         const std::vector<WorkerBody>& workers) {
    for (const WorkerBody& body : workers) {
      for (size_t i = body.body_open + 1; i < body.body_close; ++i) {
        // Bare fallible call in the task body.
        if (IsStatementStart(tokens, i, open_of_close)) {
          size_t start = i;
          if (tokens[i].IsPunct("(") && i + 2 < body.body_close &&
              tokens[i + 1].IsIdent("void") && tokens[i + 2].IsPunct(")")) {
            start = i + 3;
          }
          const size_t callee = CalleeNameIndex(tokens, start);
          if (callee < tokens.size() &&
              index_.IsFallible(tokens[callee].text)) {
            const size_t close = MatchingClose(tokens, callee + 1);
            if (close + 1 < tokens.size() && tokens[close + 1].IsPunct(";")) {
              Report(
                  rel, comments, tokens[callee].line, "status-in-task",
                  "fallible '" + tokens[callee].text +
                      "' called inside a Submit/ParallelFor task with its "
                      "Status discarded: a worker's error must escape the "
                      "lambda (per-task slot or mutex-guarded aggregator), "
                      "or the merged result is silently partial");
              continue;
            }
          }
        }
        // `Status name = ...;` never read again before the body ends.
        if (tokens[i].IsIdent("Status") && i + 2 < body.body_close &&
            tokens[i + 1].kind == TokenKind::kIdentifier &&
            tokens[i + 2].IsPunct("=") &&
            !(i > 0 && tokens[i - 1].IsPunct("::"))) {
          const std::string& name = tokens[i + 1].text;
          bool read_later = false;
          for (size_t j = i + 3; j < body.body_close; ++j) {
            if (tokens[j].kind == TokenKind::kIdentifier &&
                tokens[j].text == name) {
              read_later = true;
              break;
            }
          }
          if (!read_later) {
            Report(
                rel, comments, tokens[i + 1].line, "status-in-task",
                "Status '" + name +
                    "' produced inside a Submit/ParallelFor task is never "
                    "read before the lambda ends: store it in a per-task "
                    "slot or hand it to a guarded aggregator so the "
                    "caller sees the failure");
          }
        }
      }
    }
  }

  /// Rule 5: side effects inside debug-only check macros.
  void CheckDcheckSideEffect(const std::string& rel,
                             std::span<const Token> tokens,
                             const std::vector<Comment>& comments) {
    static constexpr std::string_view kMutatingOps[] = {
        "++", "--", "=",  "+=",  "-=",  "*=", "/=",
        "%=", "&=", "|=", "^=", "<<=", ">>=",
    };
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (!(tokens[i].IsIdent("FAIRLAW_DCHECK") ||
            tokens[i].IsIdent("FAIRLAW_DCHECK_OK")) ||
          !tokens[i + 1].IsPunct("(")) {
        continue;
      }
      const size_t close = MatchingClose(tokens, i + 1);
      for (size_t j = i + 2; j < close && j < tokens.size(); ++j) {
        bool mutating = false;
        std::string what;
        if (tokens[j].kind == TokenKind::kPunct) {
          for (const std::string_view op : kMutatingOps) {
            if (tokens[j].text == op) {
              mutating = true;
              what = "operator '" + tokens[j].text + "'";
              break;
            }
          }
        } else if (tokens[j].kind == TokenKind::kIdentifier &&
                   index_.IsFallible(tokens[j].text) &&
                   j + 1 < tokens.size() && tokens[j + 1].IsPunct("(")) {
          mutating = true;
          what = "call to fallible '" + tokens[j].text + "'";
        }
        if (!mutating) continue;
        Report(
            rel, comments, tokens[j].line, "dcheck-side-effect",
            what + " inside " + tokens[i].text +
                ": the macro compiles out under NDEBUG, so this side "
                "effect silently vanishes from release builds; hoist it "
                "out and check the stored result instead");
        break;  // one finding per macro invocation is enough
      }
    }
  }

  SignatureIndex index_;
  Reporter& reporter_;
};

}  // namespace

void RunFlowcheckPass(const SourceTree& tree, Reporter* reporter) {
  FlowChecker(reporter).CheckTree(tree);
}

}  // namespace fairlaw::analysis
