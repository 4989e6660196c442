"""Monolingual ad-hoc retrieval toolkit.

Pipeline: ingest a TREC-style tagged corpus, build an inverted index, rank
TREC topics under 21 term-weighting models, optionally expand queries through
a curated thesaurus, evaluate recall/MAP against qrels, and report the
before/after expansion comparison.
"""
