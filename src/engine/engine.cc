#include "engine/engine.h"

#include <utility>

namespace recnet {

StatusOr<std::unique_ptr<Engine>> Engine::Compile(
    const std::string& source, const EngineOptions& options,
    const SessionOptions& deployment) {
  SessionOptions session_options = deployment;
  session_options.num_nodes = options.num_nodes;
  auto session = std::make_unique<Session>(session_options);
  StatusOr<View*> view = session->AddProgram(source, options);
  if (!view.ok()) return view.status();
  return std::unique_ptr<Engine>(
      new Engine(std::move(session), view.value()));
}

}  // namespace recnet
