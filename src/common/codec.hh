/**
 * @file
 * JSON record codecs from one field declaration. A record type R lists
 * its fields once, in an ADL-visible visitor
 *
 *   template <typename V, RecordOf<R> T>   // T = R or const R
 *   void fields(V &v, T &r) { v("name", r.member); ... }
 *
 * whose call order is the JSON member order; JsonOut writes (it
 * visits a const record) and JsonIn reads. Member types: bool, u32,
 * u64, i32, double, std::string, double[N], nested records (JSON
 * objects) and std::vector of records (JSON arrays of objects);
 * `v.tuples(name, vec)` stores a vector's records positionally
 * ([a,b,...]) instead. Doubles are written with %.17g, so they
 * round-trip exactly. A record whose decoded fields must agree with
 * each other reports through `v.check(ok)`.
 *
 * The reader never trusts its input: integers must convert exactly
 * (jsonInteger), and any bad field makes the whole decode false —
 * never undefined behaviour.
 */

#ifndef PLUTO_COMMON_CODEC_HH
#define PLUTO_COMMON_CODEC_HH

#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/digest.hh"
#include "common/emit.hh"

namespace pluto
{

/** `T` is `R` or `const R`: the record parameter of a fields() visitor. */
template <typename T, typename R>
concept RecordOf = std::is_same_v<std::remove_const_t<T>, R>;

/**
 * Convert JSON number `v` to integer type T. @return false, leaving
 * `out` untouched, when `v` is negative (for unsigned T), fractional,
 * non-finite or out of T's range: every case where a plain
 * static_cast would be undefined or silently wrong.
 */
template <typename T>
bool
jsonInteger(double v, T &out)
{
    const double lo = static_cast<double>(std::numeric_limits<T>::min());
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    // Negated form: NaN fails every comparison.
    if (!(v >= lo && v < hi && v == std::trunc(v)))
        return false;
    out = static_cast<T>(v);
    return true;
}

namespace detail
{

template <typename T>
constexpr bool kIsVector = false;

template <typename R>
constexpr bool kIsVector<std::vector<R>> = true;

} // namespace detail

/** Writes fields as JSON object members or array elements. */
class JsonOut
{
  public:
    /** Append to `out`; `first` = no leading comma; `named` = object
     *  members ("name":value), else array elements. */
    JsonOut(std::string &out, bool first, bool named)
        : out_(out), first_(first), named_(named)
    {
    }

    template <typename T>
    void operator()(const char *name, const T &x)
    {
        key(name);
        write(x, true);
    }

    template <typename R>
    void tuples(const char *name, const std::vector<R> &xs)
    {
        key(name);
        write(xs, false);
    }

  private:
    void key(const char *name)
    {
        if (!first_)
            out_ += ',';
        first_ = false;
        if (named_) {
            out_ += '"';
            out_ += name;
            out_ += "\":";
        }
    }

    /** Write `x`; records as objects (`named`) or as arrays. */
    template <typename T>
    void write(const T &x, bool named)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out_ += x ? "true" : "false";
        } else if constexpr (std::is_integral_v<T>) {
            out_ += std::to_string(x);
        } else if constexpr (std::is_floating_point_v<T>) {
            out_ += fmtDoubleExact(x);
        } else if constexpr (std::is_same_v<T, std::string>) {
            out_ += '"' + jsonEscape(x) + '"';
        } else {
            const bool list = std::is_array_v<T> || detail::kIsVector<T>;
            out_ += list || !named ? '[' : '{';
            JsonOut sub(out_, true, !list && named);
            if constexpr (std::is_array_v<T> || detail::kIsVector<T>) {
                for (const auto &e : x) {
                    sub.key("");
                    sub.write(e, named);
                }
            } else {
                fields(sub, x);
            }
            out_ += list || !named ? ']' : '}';
        }
    }

    std::string &out_;
    bool first_;
    bool named_;
};

/** Reads fields from a JSON object's members or array's elements. */
class JsonIn
{
  public:
    JsonIn(const JsonValue &v, bool named) : v_(v), named_(named) {}

    /** @return true while every field read so far was valid. */
    bool ok() const { return ok_; }

    /** Fail the decode unless `good`. */
    void check(bool good) { ok_ = ok_ && good; }

    template <typename T>
    void operator()(const char *name, T &x)
    {
        read(next(name), x, true);
    }

    template <typename R>
    void tuples(const char *name, std::vector<R> &xs)
    {
        read(next(name), xs, false);
    }

  private:
    const JsonValue *next(const char *name)
    {
        if (named_)
            return v_.find(name);
        return pos_ < v_.size() ? &v_.at(pos_++) : nullptr;
    }

    /** Read `j` into `x`; records from objects (`named`) or from
     *  arrays whose elements they consume exactly. */
    template <typename T>
    void read(const JsonValue *j, T &x, bool named)
    {
        check(j != nullptr);
        if (!ok_)
            return;
        if constexpr (std::is_same_v<T, bool>) {
            check(j->isBool());
            x = j->asBool();
        } else if constexpr (std::is_integral_v<T>) {
            check(j->isNumber() && jsonInteger(j->asNumber(), x));
        } else if constexpr (std::is_floating_point_v<T>) {
            check(j->isNumber());
            x = j->asNumber();
        } else if constexpr (std::is_same_v<T, std::string>) {
            check(j->isString());
            x = j->asString();
        } else {
            constexpr bool list = std::is_array_v<T> || detail::kIsVector<T>;
            if constexpr (detail::kIsVector<T>)
                x.resize(j->size());
            std::size_t size = j->size();
            if constexpr (std::is_array_v<T>)
                size = std::extent_v<T>;
            const bool object = !list && named;
            check(object ? j->isObject()
                         : j->isArray() && j->size() == size);
            if (!ok_)
                return;
            JsonIn sub(*j, object);
            if constexpr (list) {
                for (auto &e : x)
                    sub.read(sub.next(""), e, named);
            } else {
                fields(sub, x);
            }
            check(sub.ok_ && (object || sub.pos_ == size));
        }
    }

    const JsonValue &v_;
    bool named_;
    bool ok_ = true;
    std::size_t pos_ = 0;
};

/** @return the JSON members of `r`, each led by ',' (an object body
 *  that follows a caller-written first member). */
template <typename R>
std::string
jsonMembers(const R &r)
{
    std::string s;
    JsonOut out(s, false, true);
    fields(out, r);
    return s;
}

/** Decode `r` from JSON object `obj`. @return false on any bad field. */
template <typename R>
bool
fromJson(const JsonValue &obj, R &r)
{
    JsonIn in(obj, true);
    fields(in, r);
    return in.ok();
}

} // namespace pluto

#endif // PLUTO_COMMON_CODEC_HH
