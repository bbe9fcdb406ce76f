/**
 * @file
 * A small std::expected-style result type (the toolchain is C++20, so
 * the C++23 std::expected is not available).
 *
 * Expected<T, E> holds either a value or an error, and makes the
 * caller say which one it wants: value() panics when the result holds
 * an error and vice versa, so a forgotten check is a loud simulator
 * bug instead of a silently defaulted configuration — the failure mode
 * this type exists to remove from RunnerOptions::fromEnv().
 */

#ifndef BEAR_COMMON_EXPECTED_HH
#define BEAR_COMMON_EXPECTED_HH

#include <utility>
#include <variant>

#include "common/log.hh"

namespace bear
{

/** Wrapper marking a constructor argument as the error alternative. */
template <typename E>
struct Unexpected
{
    E error;
};

/** Deduction helper: `return unexpected(EnvError{...});`. */
template <typename E>
Unexpected<E>
unexpected(E error)
{
    return Unexpected<E>{std::move(error)};
}

/**
 * Either a T (success) or an E (failure); never both, never neither.
 *
 * The type itself is [[nodiscard]]: a call that returns an Expected
 * and ignores it is a compile error (every build adds
 * -Werror=unused-result), because a dropped result is exactly the
 * silently ignored error this type exists to make impossible.
 */
template <typename T, typename E>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : state_(std::in_place_index<0>, std::move(value))
    {
    }

    Expected(Unexpected<E> u)
        : state_(std::in_place_index<1>, std::move(u.error))
    {
    }

    bool hasValue() const { return state_.index() == 0; }
    explicit operator bool() const { return hasValue(); }

    T &
    value()
    {
        bear_assert(hasValue(), "Expected::value() on an error result");
        return std::get<0>(state_);
    }

    const T &
    value() const
    {
        bear_assert(hasValue(), "Expected::value() on an error result");
        return std::get<0>(state_);
    }

    const E &
    error() const
    {
        bear_assert(!hasValue(), "Expected::error() on a value result");
        return std::get<1>(state_);
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    T
    valueOr(T fallback) const
    {
        return hasValue() ? std::get<0>(state_) : std::move(fallback);
    }

  private:
    std::variant<T, E> state_;
};

} // namespace bear

#endif // BEAR_COMMON_EXPECTED_HH
