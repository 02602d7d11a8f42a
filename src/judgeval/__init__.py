"""judgeval: compare LLM relevance judgments against human qrels.

Generates length-budgeted document summaries, elicits graded relevance
labels under full-document or summary evidence, and reports label
agreement, retrieval effectiveness, system-ranking stability, and token
cost for the resulting judgment sets.
"""

__version__ = "0.3.0"
