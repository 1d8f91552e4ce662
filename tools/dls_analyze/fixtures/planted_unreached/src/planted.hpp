// Seeded finding for the reach check: the library half of a tiny
// program whose only entry point is examples/entry.cpp.
#pragma once

#include <functional>

namespace fixture {

// Planted: external linkage, and nothing the entry point runs calls it.
int planted_unreached_helper(int x);

// Not findings. Each is reached only in a way -fcallgraph-info records
// no edge for; the relocations that take their addresses root them.
extern int (*g_handler)(int);  // holds stored_in_pointer
int stored_in_pointer(int x);

struct Shape {
  virtual ~Shape() = default;
  virtual int area() const = 0;
};
struct Square : Shape {
  explicit Square(int side) : side_(side) {}
  int area() const override;  // runs only through Shape's vtable

 private:
  int side_;
};
const Shape& unit_square();

int called_from_lambda(int x);  // only a std::function's target calls it
std::function<int(int)> make_handler();

// Not a finding either: unreached, but waived in ../waivers.conf.
int waived_unreached(int x);

}  // namespace fixture
