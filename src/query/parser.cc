#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <unordered_map>

namespace ppr {

std::string ParsedQuery::NameOf(AttrId a) const {
  if (a >= 0 && static_cast<size_t>(a) < var_names.size()) {
    return var_names[static_cast<size_t>(a)];
  }
  return "x" + std::to_string(a);
}

namespace {

// Minimal recursive-descent parser; tokens are views of the text.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<ParsedQuery> Run() {
    SkipSpace();
    // Optional projection head.
    std::vector<std::string_view> head;
    const size_t mark = pos_;
    if (PeekIdentifier() == "pi") {
      pos_ += 2;
      SkipSpace();
      if (!Consume('{')) {
        // "pi" not followed by '{' is an ordinary relation name.
        pos_ = mark;
      }
    }
    if (pos_ != mark) {
      SkipSpace();
      if (!Consume('}')) {
        for (;;) {
          const std::string_view var = ConsumeIdentifier();
          if (var.empty()) {
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
    }

    // Atom list. Variable ids are dense in order of first appearance; the
    // map's keys view the text.
    ParsedQuery out;
    std::unordered_map<std::string_view, AttrId> ids;
    auto intern = [&](std::string_view name) {
      const auto [it, added] =
          ids.try_emplace(name, static_cast<AttrId>(out.var_names.size()));
      if (added) out.var_names.emplace_back(name);
      return it->second;
    };
    // Every atom has one '(', so counting them sizes the atom vector once;
    // each atom's arguments collect in `args` and are copied out at their
    // exact size.
    std::vector<Atom> atoms;
    atoms.reserve(static_cast<size_t>(
        std::count(text_.begin() + static_cast<std::ptrdiff_t>(pos_),
                   text_.end(), '(')));
    std::vector<AttrId> args;
    for (;;) {
      SkipSpace();
      const std::string_view relation = ConsumeIdentifier();
      if (relation.empty()) return Error("expected relation name");
      SkipSpace();
      if (!Consume('(')) return Error("expected '(' after relation name");
      args.clear();
      SkipSpace();
      if (!Consume(')')) {
        for (;;) {
          const std::string_view var = ConsumeIdentifier();
          if (var.empty()) return Error("expected variable name in atom");
          args.push_back(intern(var));
          SkipSpace();
          if (Consume(',')) {
            SkipSpace();
            continue;
          }
          if (Consume(')')) break;
          return Error("expected ',' or ')' in atom");
        }
      }
      if (args.empty()) return Error("atom needs at least one variable");
      atoms.push_back(Atom{std::string(relation), args});
      SkipSpace();
      if (Consume('&') || Consume(',')) continue;
      if (pos_ == text_.size()) break;
      return Error("expected '&' between atoms or end of input");
    }

    // Resolve the head against the variables seen in atoms.
    std::vector<AttrId> free_vars;
    free_vars.reserve(head.size());
    std::vector<bool> in_head(out.var_names.size(), false);
    for (const std::string_view name : head) {
      const auto it = ids.find(name);
      if (it == ids.end()) {
        return Status::InvalidArgument("projection variable '" +
                                       std::string(name) +
                                       "' does not occur in any atom");
      }
      const AttrId id = it->second;
      if (in_head[static_cast<size_t>(id)]) {
        return Status::InvalidArgument("duplicate projection variable '" +
                                       std::string(name) + "'");
      }
      in_head[static_cast<size_t>(id)] = true;
      free_vars.push_back(id);
    }
    out.query = ConjunctiveQuery(std::move(atoms), std::move(free_vars));
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

  // The identifier at pos_, or an empty view when there is none.
  std::string_view PeekIdentifier() const {
    if (pos_ >= text_.size() || !IsIdentStart(text_[pos_])) return {};
    size_t end = pos_ + 1;
    while (end < text_.size() && IsIdentChar(text_[end])) ++end;
    return text_.substr(pos_, end - pos_);
  }

  std::string_view ConsumeIdentifier() {
    const std::string_view word = PeekIdentifier();
    pos_ += word.size();
    return word;
  }

  const std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<ParsedQuery> ParseQuery(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace ppr
