/**
 * @file
 * CSV and JSON emitters (see emit.hh).
 */

#include "common/emit.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"

namespace pluto
{

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n\r") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (const char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
fmtNum(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

std::string
fmtU64(u64 v)
{
    return std::to_string(v);
}

CsvWriter::CsvWriter(std::vector<std::string> header)
    : columns_(header.size())
{
    PLUTO_ASSERT(columns_ > 0);
    emitLine(header);
}

void
CsvWriter::addRow(const std::vector<std::string> &cells)
{
    PLUTO_ASSERT(cells.size() == columns_);
    emitLine(cells);
    ++rows_;
}

void
CsvWriter::emitLine(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            text_ += ',';
        text_ += csvEscape(cells[i]);
    }
    text_ += '\n';
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    PLUTO_ASSERT(kind_ == Kind::Array);
    items_.push_back(std::move(v));
    return items_.back();
}

JsonValue &
JsonValue::set(std::string k, JsonValue v)
{
    PLUTO_ASSERT(kind_ == Kind::Object);
    members_.emplace_back(std::move(k), std::move(v));
    return members_.back().second;
}

namespace
{

void
renderString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
renderNumber(std::string &out, double n)
{
    if (!std::isfinite(n)) {
        out += "null"; // JSON has no Inf/NaN
        return;
    }
    // The integer fast path must stay within long long: the cast is
    // undefined beyond +/-2^63.
    if (n >= -9.2e18 && n <= 9.2e18 &&
        n == static_cast<double>(static_cast<long long>(n))) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(n));
        out += buf;
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", n);
    out += buf;
}

void
indent(std::string &out, int depth)
{
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

} // namespace

void
JsonValue::render(std::string &out, int depth) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        renderNumber(out, num_);
        break;
      case Kind::String:
        renderString(out, str_);
        break;
      case Kind::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            indent(out, depth + 1);
            items_[i].render(out, depth + 1);
            if (i + 1 < items_.size())
                out += ',';
            out += '\n';
        }
        indent(out, depth);
        out += ']';
        break;
      case Kind::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
            indent(out, depth + 1);
            renderString(out, members_[i].first);
            out += ": ";
            members_[i].second.render(out, depth + 1);
            if (i + 1 < members_.size())
                out += ',';
            out += '\n';
        }
        indent(out, depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    render(out, 0);
    out += '\n';
    return out;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

namespace
{

/** Recursive-descent JSON reader over a string. */
class JsonReader
{
  public:
    JsonReader(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    std::optional<JsonValue>
    run()
    {
        JsonValue v;
        if (!value(v, 0))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return std::nullopt;
        }
        return v;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        error_ = "offset " + std::to_string(pos_) + ": " + msg;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word, JsonValue v, JsonValue &out)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        out = std::move(v);
        return true;
    }

    bool
    string(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    break;
                const char e = text_[++pos_];
                ++pos_;
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char h = text_[pos_ + k];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    pos_ += 4;
                    // Emitted documents only escape control chars;
                    // encode the code point as UTF-8 (no surrogate
                    // pairing — sufficient for our own output).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xc0 | (cp >> 6));
                        out +=
                            static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (cp >> 12));
                        out += static_cast<char>(
                            0x80 | ((cp >> 6) & 0x3f));
                        out +=
                            static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape sequence");
                }
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        if (c == 'n')
            return literal("null", JsonValue(), out);
        if (c == 't')
            return literal("true", JsonValue(true), out);
        if (c == 'f')
            return literal("false", JsonValue(false), out);
        if (c == '"') {
            std::string s;
            if (!string(s))
                return false;
            out = JsonValue(std::move(s));
            return true;
        }
        if (c == '[') {
            ++pos_;
            out = JsonValue::array();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                // Parse in place: only this element grows from here
                // on, so the reference push hands back stays valid.
                if (!value(out.push(JsonValue()), depth + 1))
                    return false;
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '{') {
            ++pos_;
            out = JsonValue::object();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != '"')
                    return fail("expected member name");
                std::string k;
                if (!string(k))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                if (!value(out.set(std::move(k), JsonValue()), depth + 1))
                    return false;
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        // Number: delegate syntax to strtod, then bound-check the
        // consumed span to this token.
        char *end = nullptr;
        const double n = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_)
            return fail("unexpected character");
        // Overflowed literals (1e999 in a torn cache line) come back
        // as +-inf; JSON has no such value, so reject rather than
        // letting infinities replay into results.
        if (!std::isfinite(n))
            return fail("number out of range");
        pos_ = static_cast<std::size_t>(end - text_.c_str());
        out = JsonValue(n);
        return true;
    }

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<JsonValue>
JsonValue::parse(const std::string &text, std::string &error)
{
    return JsonReader(text, error).run();
}

std::string
writeTextFile(const std::string &path, const std::string &text)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path p(path);
    if (p.has_parent_path()) {
        fs::create_directories(p.parent_path(), ec);
        if (ec)
            return "cannot create directory '" +
                   p.parent_path().string() + "': " + ec.message();
    }
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    if (!out)
        return "cannot open '" + path + "' for writing";
    out.write(text.data(),
              static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out)
        return "write to '" + path + "' failed";
    return {};
}

} // namespace pluto
