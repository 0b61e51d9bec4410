#include "src/sim/sim_context.h"

namespace apiary {

SimContext::SimContext() : arena_(new PayloadArena) {}

SimContext::~SimContext() {
  // The arena may outlive us in drain mode if any PayloadBuf (a packet in a
  // mesh destroyed after this simulator, say) is still holding a chunk.
  arena_->Retire();
}

void SimContext::SetLogSink(LogSink sink, void* user) {
  log_sink_ = sink;
  log_sink_user_ = user;
}

}  // namespace apiary
