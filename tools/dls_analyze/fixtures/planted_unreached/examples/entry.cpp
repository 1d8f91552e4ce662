// The fixture's one entry point: reaches the library only through a
// function pointer, a virtual call and a std::function.
#include "planted.hpp"

int main() {
  const int through_pointer = fixture::g_handler(1);
  const int through_vtable = fixture::unit_square().area();
  const int through_function = fixture::make_handler()(3);
  return through_pointer + through_vtable + through_function == 6 ? 0 : 1;
}
