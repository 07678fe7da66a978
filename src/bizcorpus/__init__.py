"""bizcorpus: corpus curation, cleaning, deduplication and mixture planning
for a Japanese business-domain LLM, plus a QA benchmark harness."""

__version__ = "0.1.0"
