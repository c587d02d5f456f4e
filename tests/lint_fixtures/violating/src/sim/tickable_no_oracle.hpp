// det.activity_oracle: a tickable component that never advertises the
// next_event oracle the event-driven engine consumes (the name in this
// comment is not a token, so the rule still fires).
#pragma once

namespace mini {

using Cycle = unsigned long long;

class Widget {
 public:
  void tick(Cycle now) { last_ = now; }
  bool idle() const { return true; }

 private:
  Cycle last_ = 0;
};

}  // namespace mini
