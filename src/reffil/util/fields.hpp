// Field lists: one definition of a plain result struct's members.
//
// A struct opts in by naming every member once, in declaration order, with
// REFFIL_FIELDS(bytes_down, bytes_up, ...). That declares the static member
// template fields(Self& s, F&& f), which calls f("bytes_down", s.bytes_down)
// and so on; `Self` is the struct or its const version, so one list serves
// readers and writers. The member name is the only wire name: the binary
// cache, the JSON documents below, the trace records and the /metrics
// extras are all walks over the list.
// `static_assert(fields_match_members<T>())` fails the build when T gains a
// member its list does not name.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "reffil/util/obs.hpp"

#define REFFIL_FIELDS(...)                                \
  template <class Self, class F>                          \
  static constexpr void fields(Self& s, F&& f) {          \
    REFFIL_FIELDS_SCAN_(REFFIL_FIELDS_EACH_(__VA_ARGS__)) \
  }
// One f(...) per argument: each expansion leaves REFFIL_FIELDS_NEXT_ () for
// the next rescan to expand. REFFIL_FIELDS_SCAN_'s nested rescans suffice
// for 40 members; a longer list leaves that token and fails to compile.
#define REFFIL_FIELDS_EACH_(m, ...) \
  f(#m, s.m);                       \
  __VA_OPT__(REFFIL_FIELDS_NEXT_ REFFIL_FIELDS_PARENS_(__VA_ARGS__))
#define REFFIL_FIELDS_PARENS_ ()
#define REFFIL_FIELDS_NEXT_() REFFIL_FIELDS_EACH_
#define REFFIL_FIELDS_SCAN_(...) \
  REFFIL_FIELDS_SCAN9_(REFFIL_FIELDS_SCAN9_(REFFIL_FIELDS_SCAN9_(__VA_ARGS__)))
#define REFFIL_FIELDS_SCAN9_(...) \
  REFFIL_FIELDS_SCAN3_(REFFIL_FIELDS_SCAN3_(REFFIL_FIELDS_SCAN3_(__VA_ARGS__)))
#define REFFIL_FIELDS_SCAN3_(...) \
  REFFIL_FIELDS_SCAN1_(REFFIL_FIELDS_SCAN1_(REFFIL_FIELDS_SCAN1_(__VA_ARGS__)))
#define REFFIL_FIELDS_SCAN1_(...) __VA_ARGS__

namespace reffil::util {

template <class T>
concept HasFields = requires(T& s) { T::fields(s, [](const char*, auto&) {}); };

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Call f(name, member) for every listed member of `s`.
template <class T, class F>
void for_each_field(T&& s, F&& f) {
  std::remove_cvref_t<T>::fields(s, f);
}

template <HasFields T>
constexpr std::size_t field_count() {
  T s{};
  std::size_t n = 0;
  T::fields(s, [&n](const char*, auto&) { ++n; });
  return n;
}

namespace detail {
struct AnyMember {
  template <class T>
  operator T() const;  // unevaluated: only counts initializers
};
}  // namespace detail

/// Member count of aggregate T: the longest brace-init list it accepts.
template <class T, class... A>
constexpr std::size_t aggregate_arity() {
  if constexpr (requires { T{A{}..., detail::AnyMember{}}; }) {
    return aggregate_arity<T, A..., detail::AnyMember>();
  } else {
    return sizeof...(A);
  }
}

/// True when T's field list is as long as T's member list.
template <HasFields T>
constexpr bool fields_match_members() {
  return field_count<T>() == aggregate_arity<T>();
}

// ---- JSON ------------------------------------------------------------------
// Scalars render as JSON values, vectors as arrays, and a listed struct
// member renders flat: its fields join the enclosing object, so a `network`
// member becomes bytes_down, bytes_up, ... beside its siblings.

template <class T>
void json_value(obs::JsonWriter& w, const T& v);

/// Write every listed member of `s` into the open object.
template <HasFields T>
void json_members(obs::JsonWriter& w, const T& s) {
  for_each_field(s, [&w](const char* name, const auto& m) {
    if constexpr (HasFields<std::remove_cvref_t<decltype(m)>>) {
      json_members(w, m);
    } else {
      w.key(name);
      json_value(w, m);
    }
  });
}

/// Write only the members of `s` that are neither vectors nor structs.
template <HasFields T>
void json_scalars(obs::JsonWriter& w, const T& s) {
  for_each_field(s, [&w](const char* name, const auto& m) {
    using M = std::remove_cvref_t<decltype(m)>;
    if constexpr (!HasFields<M> && !kIsVector<M>) w.field(name, m);
  });
}

template <class T>
void json_value(obs::JsonWriter& w, const T& v) {
  if constexpr (HasFields<T>) {
    w.begin_object();
    json_members(w, v);
    w.end_object();
  } else if constexpr (kIsVector<T>) {
    w.begin_array();
    for (const auto& e : v) json_value(w, e);
    w.end_array();
  } else {
    w.value(v);
  }
}

}  // namespace reffil::util
