"""A tracer's events as JSON Lines text, one ``json.dumps`` per event.

The run record's ``events`` section must dump to exactly these lines,
and the trace digests the tests pin are digests of this text.
"""

import json

from repro.observability.tracer import _json_default


def to_jsonl(tracer) -> str:
    text = "\n".join(
        json.dumps(e.as_dict(), default=_json_default) for e in tracer.events()
    )
    return text + "\n" if text else text
