// Fixture violation: plugins/ is not a module of the layering DAG
// (unknown-module).
#ifndef FAIRLAW_PLUGINS_EXTRA_H_
#define FAIRLAW_PLUGINS_EXTRA_H_

namespace fairlaw::plugins {

struct Extra {};

}  // namespace fairlaw::plugins

#endif  // FAIRLAW_PLUGINS_EXTRA_H_
