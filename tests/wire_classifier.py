"""Deterministic language classifier child for tests, speaking the wire
protocol: one ``{"text": ...}`` request per stdin line, one
``{"lang": ..., "confidence": ...}`` reply per stdout line.

It reads any text with kana or Han characters as Japanese, so it keeps a
Chinese text that the script fallback would drop. Every text whose length is
a multiple of four gets an uncertain verdict, which the fallback overrides.

    python tests/wire_classifier.py
"""

import json
import sys

for line in sys.stdin:
    text = json.loads(line)["text"]
    cjk = any(0x3040 <= ord(c) <= 0x30FF or 0x4E00 <= ord(c) <= 0x9FFF for c in text)
    confidence = 0.5 if len(text) % 4 == 0 else 0.97
    print(json.dumps({"lang": "ja" if cjk else "en", "confidence": confidence}), flush=True)
