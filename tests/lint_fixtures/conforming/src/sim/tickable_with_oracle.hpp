// Conforming counterpart to tickable_no_oracle.hpp: the tickable widget
// advertises the activity oracle.
#pragma once

namespace mini {

using Cycle = unsigned long long;

class Widget {
 public:
  void tick(Cycle now) { last_ = now; }
  Cycle next_event(Cycle) const { return 0; }

 private:
  Cycle last_ = 0;
};

}  // namespace mini
