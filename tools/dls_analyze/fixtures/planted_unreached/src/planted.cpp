#include "planted.hpp"

namespace fixture {

int planted_unreached_helper(int x) { return 3 * x + 1; }

int stored_in_pointer(int x) { return x + 2; }
int (*g_handler)(int) = stored_in_pointer;

int Square::area() const { return side_ * side_; }

const Shape& unit_square() {
  static const Square square(1);
  return square;
}

int called_from_lambda(int x) { return x - 1; }

std::function<int(int)> make_handler() {
  return [](int x) { return called_from_lambda(x); };
}

int waived_unreached(int x) { return -x; }

}  // namespace fixture
