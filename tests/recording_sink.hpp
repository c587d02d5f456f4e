// Test support: an EventSink that serializes every stamp into one line of
// a text log, so two runs' lifecycle streams compare byte-for-byte.
#pragma once

#include <sstream>
#include <string>

#include "obs/obs.hpp"

namespace mac3d {

class RecordingSink final : public EventSink {
 public:
  void on_stage(Stage stage, ThreadId tid, Tag tag, Cycle cycle) override {
    log_ << "s " << static_cast<int>(stage) << ' ' << tid << ' ' << tag << ' '
         << cycle << '\n';
  }
  void on_merge(ThreadId tid, Tag tag, ThreadId leader_tid, Tag leader_tag,
                Cycle cycle) override {
    log_ << "m " << tid << ' ' << tag << ' ' << leader_tid << ' '
         << leader_tag << ' ' << cycle << '\n';
  }
  void on_hop(Hop hop, ThreadId tid, Tag tag, NodeId src, NodeId dest,
              Cycle cycle) override {
    log_ << "h " << static_cast<int>(hop) << ' ' << tid << ' ' << tag << ' '
         << static_cast<unsigned>(src) << ' ' << static_cast<unsigned>(dest)
         << ' ' << cycle << '\n';
  }
  [[nodiscard]] std::string str() const { return log_.str(); }

 private:
  std::ostringstream log_;
};

}  // namespace mac3d
