#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "encode/kcolor.h"
#include "exec/executor.h"
#include "query/parser.h"
#include "service/service.h"

namespace ppr {
namespace {

TEST(ParserTest, ParsesProjectionAndAtoms) {
  Result<ParsedQuery> parsed =
      ParseQuery("pi{X, Y} edge(X, Z) & edge(Z, Y)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ConjunctiveQuery& q = parsed->query;
  ASSERT_EQ(q.num_atoms(), 2);
  EXPECT_EQ(q.atoms()[0].relation, "edge");
  // First-appearance ids over the atom list: X=0, Z=1, Y=2.
  EXPECT_EQ(q.atoms()[0].args, (std::vector<AttrId>{0, 1}));
  EXPECT_EQ(q.atoms()[1].args, (std::vector<AttrId>{1, 2}));
  EXPECT_EQ(q.free_vars(), (std::vector<AttrId>{0, 2}));
  EXPECT_EQ(parsed->NameOf(1), "Z");
}

TEST(ParserTest, BooleanWithoutHead) {
  Result<ParsedQuery> parsed = ParseQuery("r(A, B), s(B)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->query.IsBoolean());
  EXPECT_EQ(parsed->query.num_atoms(), 2);
}

TEST(ParserTest, EmptyHeadIsBoolean) {
  Result<ParsedQuery> parsed = ParseQuery("pi{} r(A)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->query.IsBoolean());
}

TEST(ParserTest, RepeatedVariableInAtom) {
  Result<ParsedQuery> parsed = ParseQuery("pi{A} loop(A, A)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->query.atoms()[0].args, (std::vector<AttrId>{0, 0}));
}

TEST(ParserTest, PiAsRelationNameStillWorks) {
  // "pi" not followed by '{' is an ordinary relation name.
  Result<ParsedQuery> parsed = ParseQuery("pi(A, B)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->query.atoms()[0].relation, "pi");
}

TEST(ParserTest, WhitespaceInsensitive) {
  Result<ParsedQuery> a = ParseQuery("pi{X}edge(X,Y)&edge(Y,Z)");
  Result<ParsedQuery> b = ParseQuery("  pi { X }  edge ( X , Y )\n& edge(Y,Z) ");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->query.ToString(), b->query.ToString());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("pi{X}").ok());                 // no atoms
  EXPECT_FALSE(ParseQuery("pi{X edge(X,Y)").ok());        // head not closed
  EXPECT_FALSE(ParseQuery("edge(X,Y) edge(Y,Z)").ok());   // missing '&'
  EXPECT_FALSE(ParseQuery("edge(X,").ok());               // atom not closed
  EXPECT_FALSE(ParseQuery("edge()").ok());                // no variables
  EXPECT_FALSE(ParseQuery("pi{Q} edge(X,Y)").ok());       // Q unused
  EXPECT_FALSE(ParseQuery("pi{X,X} edge(X,Y)").ok());     // duplicate head
  EXPECT_FALSE(ParseQuery("edge(X,Y) &").ok());           // trailing '&'
  EXPECT_FALSE(ParseQuery("1edge(X)").ok());              // bad identifier
}

TEST(ParserTest, ErrorMessagesCarryOffsets) {
  Result<ParsedQuery> r = ParseQuery("edge(X,");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, ParsedQueryExecutes) {
  // The parsed pentagon equals the hand-built fixture semantically.
  Result<ParsedQuery> parsed = ParseQuery(
      "pi{V1} edge(V1,V2) & edge(V1,V5) & edge(V4,V5) & edge(V3,V4) & "
      "edge(V2,V3)");
  ASSERT_TRUE(parsed.ok());
  Database db;
  AddColoringRelations(3, &db);
  ExecutionResult a = ExecuteStraightforward(parsed->query, db);
  ExecutionResult b = ExecuteStraightforward(PentagonQuery(), db);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.output.size(), b.output.size());
  EXPECT_EQ(a.nonempty(), b.nonempty());
}

TEST(ParserTest, RoundTripThroughToString) {
  // ToString renders x<i> names; re-parsing yields an isomorphic query.
  Result<ParsedQuery> parsed = ParseQuery("pi{A} r(A,B) & s(B,C)");
  ASSERT_TRUE(parsed.ok());
  std::string rendered = parsed->query.ToString();
  // "pi_{x0} r(x0, x1) |><| s(x1, x2)" — normalize the operators.
  for (std::string from : {"pi_{", "|><|"}) {
    size_t pos;
    while ((pos = rendered.find(from)) != std::string::npos) {
      rendered.replace(pos, from.size(), from == "|><|" ? "&" : "pi{");
    }
  }
  Result<ParsedQuery> again = ParseQuery(rendered);
  ASSERT_TRUE(again.ok()) << rendered;
  EXPECT_EQ(again->query.num_atoms(), parsed->query.num_atoms());
  EXPECT_EQ(again->query.free_vars().size(),
            parsed->query.free_vars().size());
}

// ---------------------------------------------------------------------------
// Oracle: the parser as it was before tokens became views of the text
// (a std::string per identifier, a std::map from name to id, a linear
// duplicate check over the head). ParseQuery must agree with it bit for
// bit: variable names, atoms, free variables, and every error's status
// and message.

class ReferenceParser {
 public:
  explicit ReferenceParser(const std::string& text) : text_(text) {}

  Result<ParsedQuery> Run() {
    SkipSpace();
    // Optional projection head.
    std::vector<std::string> head;
    bool has_head = false;
    const size_t mark = pos_;
    std::string word;
    if (PeekIdentifier(&word) && word == "pi") {
      ConsumeIdentifier();
      SkipSpace();
      if (!Consume('{')) {
        // "pi" not followed by '{' is an ordinary relation name.
        pos_ = mark;
      }
    }
    if (pos_ != mark) {
      has_head = true;
      SkipSpace();
      if (!Consume('}')) {
        for (;;) {
          std::string var;
          if (!ConsumeIdentifierInto(&var)) {
            return Error("expected variable name in projection head");
          }
          head.push_back(var);
          SkipSpace();
          if (Consume(',')) {
            SkipSpace();
            continue;
          }
          if (Consume('}')) break;
          return Error("expected ',' or '}' in projection head");
        }
      }
    } else {
      pos_ = mark;
    }

    // Atom list.
    ParsedQuery out;
    std::map<std::string, AttrId> ids;
    auto id_of = [&](const std::string& name) {
      auto it = ids.find(name);
      if (it != ids.end()) return it->second;
      const AttrId id = static_cast<AttrId>(out.var_names.size());
      ids.emplace(name, id);
      out.var_names.push_back(name);
      return id;
    };

    for (;;) {
      SkipSpace();
      std::string relation;
      if (!ConsumeIdentifierInto(&relation)) {
        return Error("expected relation name");
      }
      SkipSpace();
      if (!Consume('(')) return Error("expected '(' after relation name");
      Atom atom;
      atom.relation = relation;
      SkipSpace();
      if (!Consume(')')) {
        for (;;) {
          std::string var;
          if (!ConsumeIdentifierInto(&var)) {
            return Error("expected variable name in atom");
          }
          atom.args.push_back(id_of(var));
          SkipSpace();
          if (Consume(',')) {
            SkipSpace();
            continue;
          }
          if (Consume(')')) break;
          return Error("expected ',' or ')' in atom");
        }
      }
      if (atom.args.empty()) return Error("atom needs at least one variable");
      out.query.AddAtom(std::move(atom));
      SkipSpace();
      if (Consume('&') || Consume(',')) continue;
      if (pos_ == text_.size()) break;
      return Error("expected '&' between atoms or end of input");
    }

    // Resolve the head against the variables seen in atoms.
    std::vector<AttrId> free_vars;
    for (const std::string& name : head) {
      auto it = ids.find(name);
      if (it == ids.end()) {
        return Status::InvalidArgument("projection variable '" + name +
                                       "' does not occur in any atom");
      }
      for (AttrId existing : free_vars) {
        if (existing == it->second) {
          return Status::InvalidArgument("duplicate projection variable '" +
                                         name + "'");
        }
      }
      free_vars.push_back(it->second);
    }
    (void)has_head;
    out.query.SetFreeVars(std::move(free_vars));
    return out;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static bool IsIdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  bool PeekIdentifier(std::string* out) const {
    size_t p = pos_;
    if (p >= text_.size() || !IsIdentStart(text_[p])) return false;
    std::string word;
    while (p < text_.size() && IsIdentChar(text_[p])) word += text_[p++];
    *out = word;
    return true;
  }

  void ConsumeIdentifier() {
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
  }

  bool ConsumeIdentifierInto(std::string* out) {
    std::string word;
    if (!PeekIdentifier(&word)) return false;
    pos_ += word.size();
    *out = word;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<ParsedQuery> ReferenceParseQuery(const std::string& text) {
  return ReferenceParser(text).Run();
}

::testing::AssertionResult SameAsReference(const std::string& text) {
  const Result<ParsedQuery> got = ParseQuery(text);
  const Result<ParsedQuery> want = ReferenceParseQuery(text);
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << "ok " << got.ok() << " vs reference " << want.ok() << " on \""
           << text << "\"";
  }
  if (!want.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return ::testing::AssertionFailure()
             << "\"" << got.status().ToString() << "\" vs reference \""
             << want.status().ToString() << "\" on \"" << text << "\"";
    }
    return ::testing::AssertionSuccess();
  }
  if (got->var_names != want->var_names) {
    return ::testing::AssertionFailure() << "var_names differ on \"" << text
                                         << "\"";
  }
  const std::vector<Atom>& a = got->query.atoms();
  const std::vector<Atom>& b = want->query.atoms();
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "atom count differs on \""
                                         << text << "\"";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].relation != b[i].relation || a[i].args != b[i].args) {
      return ::testing::AssertionFailure()
             << "atom " << i << " differs on \"" << text << "\"";
    }
  }
  if (got->query.free_vars() != want->query.free_vars()) {
    return ::testing::AssertionFailure() << "free variables differ on \""
                                         << text << "\"";
  }
  return ::testing::AssertionSuccess();
}

// A random query over relation names that include "pi" (a relation, not
// a head, when no '{' follows) and identifier edge cases.
ConjunctiveQuery RandomQuery(Rng* rng) {
  static const char* const kRelations[] = {"edge", "pi", "r", "s2", "_t",
                                           "Pi",   "pix", "PI_"};
  const int num_vars = rng->NextInt(1, 40);
  const int num_atoms = rng->NextInt(1, 24);
  std::vector<Atom> atoms;
  std::vector<AttrId> used;
  for (int i = 0; i < num_atoms; ++i) {
    Atom atom;
    atom.relation = kRelations[rng->NextBounded(std::size(kRelations))];
    const int arity = rng->NextInt(1, 4);
    for (int k = 0; k < arity; ++k) {
      // Sparse, unordered ids: the parser renumbers by first appearance.
      const AttrId v = static_cast<AttrId>(3 * rng->NextInt(0, num_vars - 1));
      atom.args.push_back(v);
      used.push_back(v);
    }
    atoms.push_back(std::move(atom));
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  rng->Shuffle(used);
  used.resize(static_cast<size_t>(
      rng->NextInt(0, static_cast<int>(used.size()))));
  return ConjunctiveQuery(std::move(atoms), std::move(used));
}

// Replaces every space with a random whitespace run (possibly empty) and
// puts random runs around punctuation and at both ends.
std::string PerturbWhitespace(const std::string& text, Rng* rng) {
  static const char kSpace[] = {' ', '\t', '\n', '\r', '\v', '\f'};
  auto run = [&] {
    std::string out;
    const int n = rng->NextInt(0, 3);
    for (int i = 0; i < n; ++i) {
      out.push_back(kSpace[rng->NextBounded(std::size(kSpace))]);
    }
    return out;
  };
  std::string out = run();
  for (const char c : text) {
    if (c == ' ') {
      out += run();
      continue;
    }
    const bool punct = std::string_view("{}(),&").find(c) !=
                       std::string_view::npos;
    if (punct) out += run();
    out.push_back(c);
    if (punct) out += run();
  }
  return out + run();
}

TEST(ParserOracleTest, RandomQueryToTextTextsMatchTheReference) {
  Rng rng(20041);
  for (int i = 0; i < 2000; ++i) {
    const ConjunctiveQuery q = RandomQuery(&rng);
    const std::string text = QueryToText(q);
    ASSERT_TRUE(ParseQuery(text).ok()) << text;
    ASSERT_TRUE(SameAsReference(text));
    ASSERT_TRUE(SameAsReference(PerturbWhitespace(text, &rng)));
  }
}

TEST(ParserOracleTest, PiAsRelationNameMatchesTheReference) {
  for (const char* text :
       {"pi(A, B)", "pi (A) & pi(B)", "pi{A} pi(A, B)", "pi{} pi(X)",
        "pi{pi} pi(pi)", "  pi\t(A)", "pix(A) & pi(A)", "pi{A}pi(A)&pi(B,A)",
        "pi", "pi{", "pi(", "pi{A} pi", "p(A) & pi"}) {
    EXPECT_TRUE(SameAsReference(text));
  }
}

TEST(ParserOracleTest, EveryErrorPathMatchesTheReference) {
  // One text per error message, and the message each must produce.
  const std::pair<const char*, const char*> cases[] = {
      {"pi{1} r(A)", "expected variable name in projection head at offset 3"},
      {"pi{A,} r(A)", "expected variable name in projection head at offset 5"},
      {"pi{A B} r(A)", "expected ',' or '}' in projection head at offset 5"},
      {"pi{A r(A)", "expected ',' or '}' in projection head at offset 5"},
      {"", "expected relation name at offset 0"},
      {"pi{A}", "expected relation name at offset 5"},
      {"r(A) & ", "expected relation name at offset 7"},
      {"1edge(X)", "expected relation name at offset 0"},
      {"edge X", "expected '(' after relation name at offset 5"},
      {"edge(X,", "expected variable name in atom at offset 7"},
      {"edge(1)", "expected variable name in atom at offset 5"},
      {"edge(X Y)", "expected ',' or ')' in atom at offset 7"},
      {"edge(X", "expected ',' or ')' in atom at offset 6"},
      {"edge()", "atom needs at least one variable at offset 6"},
      {"edge(X,Y) edge(Y,Z)", "expected '&' between atoms or end of input "
                              "at offset 10"},
      {"pi{Q} edge(X,Y)", "projection variable 'Q' does not occur in any "
                          "atom"},
      {"pi{X,X} edge(X,Y)", "duplicate projection variable 'X'"},
      {"pi{X,Y,X,Q} edge(X,Y)", "duplicate projection variable 'X'"},
      {"pi{Q,X,X} edge(X,Y)", "projection variable 'Q' does not occur in "
                              "any atom"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_TRUE(SameAsReference(text));
    const Result<ParsedQuery> got = ParseQuery(text);
    ASSERT_FALSE(got.ok()) << text;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(got.status().message(), message) << text;
  }
}

TEST(ParserOracleTest, TruncatedAndMutatedTextsMatchTheReference) {
  // Every prefix and random one-byte edits of valid texts reach every
  // error path at many offsets.
  static const char kBytes[] = {'(', ')', '{', '}', ',', '&', ' ', '_',
                                'a', 'Z', '1', '\t', '\0', '\xc3'};
  Rng rng(7919);
  for (int i = 0; i < 100; ++i) {
    const std::string text = PerturbWhitespace(QueryToText(RandomQuery(&rng)),
                                               &rng);
    for (size_t k = 0; k <= text.size(); ++k) {
      ASSERT_TRUE(SameAsReference(text.substr(0, k)));
    }
    for (int m = 0; m < 20; ++m) {
      std::string mutated = text;
      const size_t at = rng.NextBounded(mutated.size());
      switch (rng.NextInt(0, 2)) {
        case 0:
          mutated.erase(at, 1);
          break;
        case 1:
          mutated[at] = kBytes[rng.NextBounded(std::size(kBytes))];
          break;
        default:
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at),
                         kBytes[rng.NextBounded(std::size(kBytes))]);
      }
      ASSERT_TRUE(SameAsReference(mutated));
    }
  }
}

TEST(ParserOracleTest, FiveThousandDistinctVariablesMatchTheReference) {
  constexpr int kVars = 5000;
  Rng rng(5000);
  std::vector<int> order(kVars);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  // A path over the variables in shuffled order, and every variable in
  // the head in another order.
  std::string text = "pi{";
  std::vector<int> head = order;
  rng.Shuffle(head);
  for (int i = 0; i < kVars; ++i) {
    if (i > 0) text += ", ";
    text += "x" + std::to_string(head[static_cast<size_t>(i)]);
  }
  text += "} ";
  for (int i = 0; i + 1 < kVars; ++i) {
    if (i > 0) text += " & ";
    text += "e(x" + std::to_string(order[static_cast<size_t>(i)]) + ", x" +
            std::to_string(order[static_cast<size_t>(i + 1)]) + ")";
  }
  ASSERT_TRUE(SameAsReference(text));
  const Result<ParsedQuery> parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->var_names.size(), static_cast<size_t>(kVars));
  EXPECT_EQ(parsed->query.free_vars().size(), static_cast<size_t>(kVars));
  // An unknown and a duplicate head variable among 5000.
  EXPECT_TRUE(SameAsReference("pi{x5000, " + text.substr(3)));
  EXPECT_TRUE(SameAsReference("pi{x" + std::to_string(head.back()) + ", " +
                              text.substr(3)));
}

}  // namespace
}  // namespace ppr
