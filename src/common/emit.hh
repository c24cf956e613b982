/**
 * @file
 * Machine-readable output emitters shared by the scenario engine and
 * future bench harnesses: an RFC-4180-style CSV writer and a minimal
 * ordered JSON document builder. Both are dependency-free and render
 * to strings so callers decide where bytes go (file, stdout, test).
 */

#ifndef PLUTO_COMMON_EMIT_HH
#define PLUTO_COMMON_EMIT_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace pluto
{

/** Quote a CSV cell when it contains a delimiter, quote or newline. */
std::string csvEscape(const std::string &cell);

/** snprintf `v` with printf format `f` (fixed-precision CSV cells:
 *  stable bytes are what the cache/merge guarantees rest on). */
std::string fmtNum(const char *f, double v);

/** Decimal rendering of a u64 CSV cell. */
std::string fmtU64(u64 v);

/** CSV document with a fixed header row. */
class CsvWriter
{
  public:
    explicit CsvWriter(std::vector<std::string> header);

    /** Append one row; its width must match the header. */
    void addRow(const std::vector<std::string> &cells);

    /** @return number of data rows added so far. */
    std::size_t rows() const { return rows_; }

    /** @return the full document, header first, "\n" line ends. */
    const std::string &render() const { return text_; }

  private:
    void emitLine(const std::vector<std::string> &cells);

    std::size_t columns_;
    std::size_t rows_ = 0;
    std::string text_;
};

/**
 * A JSON value: null, bool, number, string, array or object. Objects
 * preserve insertion order so emitted documents are deterministic.
 */
class JsonValue
{
  public:
    JsonValue() : kind_(Kind::Null) {}
    JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    JsonValue(double n) : kind_(Kind::Number), num_(n) {}
    JsonValue(int n) : kind_(Kind::Number), num_(n) {}
    JsonValue(unsigned long long n)
        : kind_(Kind::Number), num_(static_cast<double>(n))
    {
    }
    JsonValue(const char *s) : kind_(Kind::String), str_(s) {}
    JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    /** @return an empty array value. */
    static JsonValue array();

    /** @return an empty object value. */
    static JsonValue object();

    /**
     * Append `v` to an array value. @return the appended element;
     * the reference is valid until the next push/set on this same
     * value (contiguous storage may move its elements).
     */
    JsonValue &push(JsonValue v);

    /**
     * Set object key `k` to `v` (appends; keys are not
     * deduplicated). @return the inserted value; the reference is
     * valid until the next push/set on this same value.
     */
    JsonValue &set(std::string k, JsonValue v);

    /** Render with 2-space indentation and a trailing newline. */
    std::string dump() const;

    /**
     * Parse a JSON document (the emitter's own output and standard
     * JSON). On failure @return std::nullopt and set `error` to an
     * "offset N: ..." diagnostic.
     */
    static std::optional<JsonValue> parse(const std::string &text,
                                          std::string &error);

    // ---- Accessors (for parsed documents) ----

    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @return bool payload (false unless isBool()). */
    bool asBool() const { return bool_; }

    /** @return numeric payload (0 unless isNumber()). */
    double asNumber() const { return num_; }

    /** @return string payload (empty unless isString()). */
    const std::string &asString() const { return str_; }

    /** @return array element count (0 for non-arrays). */
    std::size_t size() const { return items_.size(); }

    /** @return array element `i` (arrays only). */
    const JsonValue &at(std::size_t i) const { return items_.at(i); }

    /**
     * @return first member named `key`, or nullptr when absent or
     * not an object.
     */
    const JsonValue *find(const std::string &key) const;

  private:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    void render(std::string &out, int depth) const;

    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    // Vectors: an empty one allocates nothing, so the leaf nodes of a
    // parsed cache line (every number and string) cost no heap.
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Write `text` to `path`, creating parent directories as needed.
 * @return empty string on success, else a description of the failure.
 */
std::string writeTextFile(const std::string &path,
                          const std::string &text);

} // namespace pluto

#endif // PLUTO_COMMON_EMIT_HH
