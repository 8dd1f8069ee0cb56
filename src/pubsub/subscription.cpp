#include "pubsub/subscription.h"

namespace cosmos::pubsub {

bool Subscription::matches(const stream::Schema& schema,
                           const stream::Tuple& tuple) const {
  const std::vector<stream::Binding> env{{"", &schema, &tuple}};
  try {
    return filter->eval(env);
  } catch (const std::invalid_argument&) {
    return false;  // filter references attributes this message lacks
  }
}

}  // namespace cosmos::pubsub
